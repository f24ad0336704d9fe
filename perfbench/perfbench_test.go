package main

// Smoke tests at tiny scale: every workload reports every metric declared
// in BENCHMARK.json, finite and with its unit, in both modes; the traced
// and untraced runs of one seed agree on every count; two runs of one
// seed repeat their counts; and a planted wrong row fails the check.

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

// tiny shrinks a workload for the smoke tests: a hundredth of a second's
// worth of data and short blocks. The lookup block cache shrinks with the
// data so the orders table still outgrows it.
func tiny(name string) *workload {
	w := *workloads[name]
	w.sf = 0.001
	w.block = min(w.block, 20)
	w.warm = min(w.warm, 8)
	if w.cacheBytes > 0 {
		w.cacheBytes = 16 << 10
	}
	return &w
}

type smokeRun struct {
	rep    *report
	counts counts
}

var (
	smokeOnce sync.Once
	smoke     map[string][2]smokeRun // workload → {untraced, traced}
	smokeErr  error
)

// smokeRuns runs every workload once untraced and once traced, seed 7.
func smokeRuns(t *testing.T) map[string][2]smokeRun {
	t.Helper()
	smokeOnce.Do(func() {
		smoke = map[string][2]smokeRun{}
		for _, name := range workloadNames() {
			var pair [2]smokeRun
			for mode := 0; mode < 2; mode++ {
				r := &runner{w: tiny(name), seed: 7, dur: 300 * time.Millisecond, dir: t.TempDir(), info: t.Logf}
				run := r.untraced
				if mode == 1 {
					run = r.traced
				}
				rep, err := run()
				if err != nil {
					smokeErr = err
					return
				}
				pair[mode] = smokeRun{rep, r.counts}
			}
			smoke[name] = pair
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smoke
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	runs := smokeRuns(t)
	endToEnd, perLayer := declared(t)
	for name, pair := range runs {
		for mode, want := range []map[string]string{endToEnd, perLayer} {
			rep := pair[mode].rep
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s mode %d: correct=%v attempted=%d failed=%d", name, mode, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s mode %d: %d metrics, BENCHMARK.json declares %d", name, mode, len(rep.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := rep.Metrics[metric]
				switch {
				case !ok:
					t.Errorf("%s mode %d: missing %s", name, mode, metric)
				case got.Unit != unit:
					t.Errorf("%s mode %d: %s unit %q, declared %q", name, mode, metric, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s mode %d: %s = %v", name, mode, metric, got.Value)
				}
			}
		}
	}
}

func TestTracedCountsMatchUntraced(t *testing.T) {
	for name, pair := range smokeRuns(t) {
		if pair[0].counts != pair[1].counts {
			t.Errorf("%s: untraced counts %+v, traced %+v", name, pair[0].counts, pair[1].counts)
		}
		if pair[0].counts.ops == 0 || pair[0].counts.wire == 0 {
			t.Errorf("%s: empty count block %+v", name, pair[0].counts)
		}
	}
	if f := smokeRuns(t)["lookup"][1].rep.Metrics["transport.stmt_exec_frac"].Value; f != 1 {
		t.Errorf("lookup: stmt_exec_frac = %v, want 1 (the tracing executor dropped the prepared path)", f)
	}
}

func TestCountsRepeatForASeed(t *testing.T) {
	runs := smokeRuns(t)
	for _, name := range []string{"tpch", "export"} {
		r := &runner{w: tiny(name), seed: 7, dur: 300 * time.Millisecond, dir: t.TempDir(), info: t.Logf}
		if _, err := r.untraced(); err != nil {
			t.Fatal(err)
		}
		if r.counts != runs[name][0].counts {
			t.Errorf("%s: counts %+v, then %+v", name, runs[name][0].counts, r.counts)
		}
	}
}

func TestPlantedWrongRowFailsCheck(t *testing.T) {
	w := tiny("tpch")
	d, err := apiDeploy(w, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	checks, failed := warmUp(w, d, 7, domain{})
	if failed != 0 || len(checks) == 0 {
		t.Fatalf("warm-up: %d checks, %d failed", len(checks), failed)
	}
	if bad := verify(d, checks); bad != 0 {
		t.Fatalf("%d clean results fail the check", bad)
	}
	for i, ch := range checks {
		if len(ch.out.rows) == 0 {
			continue
		}
		row := append([]any(nil), ch.out.rows[0]...)
		switch v := row[0].(type) {
		case int64:
			row[0] = v + 1
		case float64:
			row[0] = v * 1.01
		default:
			row[0] = "planted"
		}
		checks[i].out.rows = append([][]any{row}, ch.out.rows[1:]...)
		if bad := verify(d, checks); bad != 1 {
			t.Errorf("planted wrong row in %s: %d results fail the check, want 1", ch.o.shape, bad)
		}
		return
	}
	t.Fatal("no result had a row to plant into")
}
