package main

import (
	"math/rand"
	"sort"

	"deepsea/internal/interval"
	"deepsea/internal/relation"
	"deepsea/internal/sdss"
	"deepsea/internal/workload"
)

// The generated inputs. Each workload replays a fixed SDSS trace, which
// stands in for the one recorded SDSS log the paper replays, over a
// BigBench instance whose keys are fixed too: item_sk values following
// the SDSS histogram, join keys and grouping columns. The run's seed
// draws everything the view manager's decisions do not depend on: the
// measure values every answer aggregates, the order and mix of
// requests, and the appended rows. DeepSea's pool decisions are chaotic
// in its keys and ranges: drawing the instance and trace per seed moved
// a 1000-query replay's simulated cost by 12-15% and its p99 by 30%
// from seed to seed, more than any regression bound can absorb.

// instanceSeed fixes the keys of every workload's BigBench instance.
const instanceSeed = 1

// sdssData generates the SDSS-shaped instance of gb modelled GB with
// measure values drawn from seed.
func sdssData(gb, seed int64) *workload.Data {
	d := workload.Generate(gb, instanceSeed, workload.Sampler(sdss.Sampler(40)))
	drawMeasures(d, seed)
	return d
}

// measures re-draws each measure column from the generator's own
// distribution. No template selects, joins or groups on these columns,
// and their modelled widths are fixed, so row counts, view sizes and
// simulated costs do not depend on them; the answers do.
var measures = map[string]map[string]func(*rand.Rand) relation.Value{
	"store_sales": {
		"ss_quantity":    func(r *rand.Rand) relation.Value { return relation.IntVal(int64(r.Intn(20) + 1)) },
		"ss_sales_price": func(r *rand.Rand) relation.Value { return relation.FloatVal(float64(r.Intn(50000)) / 100) },
	},
	"item": {
		"i_price": func(r *rand.Rand) relation.Value { return relation.FloatVal(float64(r.Intn(9900)+100) / 100) },
	},
	"customer": {
		"c_age":    func(r *rand.Rand) relation.Value { return relation.IntVal(int64(r.Intn(70) + 18)) },
		"c_income": func(r *rand.Rand) relation.Value { return relation.FloatVal(float64(r.Intn(180000) + 20000)) },
	},
	"product_reviews": {
		"pr_rating": func(r *rand.Rand) relation.Value { return relation.FloatVal(float64(r.Intn(41))/10 + 1) },
	},
}

func drawMeasures(d *workload.Data, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(measures))
	for n := range measures {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.Tables[name]
		type col struct {
			idx  int
			draw func(*rand.Rand) relation.Value
		}
		var cols []col
		for i, c := range t.Schema.Cols {
			if draw, ok := measures[name][c.Name]; ok {
				cols = append(cols, col{i, draw})
			}
		}
		for _, row := range t.Rows {
			for _, c := range cols {
				row[c.idx] = c.draw(rng)
			}
		}
	}
}

// sdssQueries draws n queries whose ranges replay the evolving SDSS
// trace with the given seed (every tenth of a 10n-query trace, clipped
// to the item_sk domain), cycling through the given templates in order.
func sdssQueries(n int, templates []workload.Template, traceSeed int64) []traceQuery {
	trace := sdss.Trace(sdss.TraceOptions{N: 10 * n, Seed: traceSeed})
	dom := workload.ItemSkDomain()
	out := make([]traceQuery, n)
	for i := range out {
		iv, ok := trace[10*i].Intersect(dom)
		if !ok {
			iv = interval.New(dom.Lo, dom.Lo)
		}
		out[i] = traceQuery{templates[i%len(templates)], iv.Lo, iv.Hi}
	}
	return out
}
