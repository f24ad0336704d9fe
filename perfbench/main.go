// Command perfbench is the repository benchmark. It runs one workload
// (tpch, lookup or export, see workload.go) against a MONOMI deployment
// for a fixed time, checks sampled results against the plaintext engine
// outside the timed window, and prints one JSON object as its last line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 it builds the deployment through the public monomi API
// and reports end-to-end metrics. With --trace 1 it assembles the same
// deployment from the internal packages, records spans around the calls
// into each layer, and reports per-layer metrics. Build and run it from
// the repository root with perfbench/run.sh, or from this directory:
//
//	go run . --workload lookup --seed 3 --seconds 10 --trace 0 --out-dir /tmp/pb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/value"
)

// setupRuns is how many times the untraced run builds its deployment;
// setup_s is their median. A set-up costs about as much as the timed
// window, so two leave the window its length within the run budget.
const setupRuns = 2

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	name := flag.String("workload", "tpch", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the data and the query streams")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for segment files and spans")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload one of %s, seconds ≥ 1, trace 0 or 1)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := runner{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: *outDir}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = r.traced()
	} else {
		rep, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runner carries one run's settings.
type runner struct {
	w    *workload
	seed int64
	dur  time.Duration
	dir  string // parent of the run's scratch directory
	// info receives the run's descriptive lines (stdout by default).
	info func(format string, args ...any)
	// counts is filled in by the run.
	counts counts
}

// note records one descriptive line: "info" and a JSON object.
func (r *runner) note(fields map[string]any) {
	line, err := json.Marshal(fields)
	if err != nil {
		line = []byte(fmt.Sprintf("%q", err.Error()))
	}
	if r.info != nil {
		r.info("info %s", line)
		return
	}
	fmt.Printf("info %s\n", line)
}

// scratch makes a fresh directory for one deployment's segment files.
func (r *runner) scratch() (string, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.dir, "perfbench-"+r.w.name+"-")
}

// untraced measures the end-to-end metrics through the public API.
func (r *runner) untraced() (*report, error) {
	if err := checkDesign(r.w, r.seed); err != nil {
		return nil, err
	}
	var setups []float64
	var d *deployment
	var dir string
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
			os.RemoveAll(dir)
		}
		runtime.GC()
		debug.FreeOSMemory()
		var err error
		if dir, err = r.scratch(); err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = apiDeploy(r.w, r.seed, dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer os.RemoveAll(dir)
	defer d.close()
	if err := r.describe(d, dir); err != nil {
		return nil, err
	}
	dom, err := readDomain(d)
	if err != nil {
		return nil, err
	}
	checks, failed := warmUp(r.w, d, r.seed, dom)
	wr := window(r.w, d, r.seed, dom, r.dur, nil)
	r.counts = countsOf(r.w, d, wr)

	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("wire_kb_per_query", "KB", float64(r.counts.wire)/float64(r.counts.ops)/1024)
	attempted, winFailed := r.endToEnd(m, wr)
	attempted += int64(r.w.warm * len(d.conns))
	failed += winFailed
	for _, cr := range wr.clients {
		checks = append(checks, cr.checks...)
	}
	bad := verify(d, checks)
	m.set("space_ratio", "ratio", float64(d.encBytes)/float64(d.plainBytes))
	m.set("mem_peak_mb", "MB", peakRSSMB())
	r.note(map[string]any{
		"workload": r.w.name, "seed": r.seed, "setups_s": setups, "checked": len(checks), "mismatched": bad,
	})
	return &report{Correct: bad == 0 && failed == 0, Attempted: attempted, Failed: failed + bad, Metrics: m}, nil
}

// endToEnd fills the timing metrics of a window and returns the ops it
// attempted and the ones that failed.
func (r *runner) endToEnd(m metrics, wr *windowRun) (attempted, failed int64) {
	var lat []float64
	var blocks []float64
	byShape := map[string][]float64{}
	for _, cr := range wr.clients {
		for i, d := range cr.lat {
			lat = append(lat, ms(d))
			byShape[cr.shapes[i]] = append(byShape[cr.shapes[i]], ms(d))
		}
		for _, b := range cr.blocks {
			blocks = append(blocks, b.Seconds())
		}
		failed += cr.failed
	}
	sort.Float64s(lat)
	logSum := 0.0
	shapeMedians := map[string]float64{}
	for shape, v := range byShape {
		shapeMedians[shape] = median(v)
		logSum += math.Log(shapeMedians[shape])
	}
	m.set("pass_s", "s", median(blocks))
	m.set("geomean_ms", "ms", math.Exp(logSum/float64(len(byShape))))
	m.set("qps", "1/s", float64(len(lat))/wr.wall.Seconds())
	m.set("latency_p50_ms", "ms", percentile(lat, 0.50))
	m.set("latency_p90_ms", "ms", percentile(lat, 0.90))
	m.set("latency_p99_ms", "ms", percentile(lat, 0.99))
	r.note(map[string]any{
		"window_s": wr.wall.Seconds(), "cpu_steal_frac": wr.steal, "queries": len(lat), "blocks": len(blocks),
		"samples_beyond_p99": len(lat) / 100, "samples_beyond_p90": len(lat) / 10,
		"shape_median_ms": shapeMedians,
	})
	return int64(len(lat)), failed
}

// describe records the data, encrypted and block-cache sizes, and refuses
// a disk workload whose tables fit in their block caches.
func (r *runner) describe(d *deployment, dir string) error {
	segs, err := segmentBytes(dir)
	if err != nil {
		return err
	}
	var segTotal int64
	for _, b := range segs {
		segTotal += b
	}
	info := map[string]any{
		"plain_bytes": d.plainBytes, "enc_bytes": d.encBytes, "segment_bytes": segTotal,
	}
	if r.w.backend == "disk" {
		cache := r.w.cacheBytes * int64(len(segs))
		info["block_cache_bytes"] = cache
		info["segment_over_cache"] = float64(segTotal) / float64(cache)
		for _, t := range r.w.tables {
			if segs[t] <= 4*r.w.cacheBytes {
				return fmt.Errorf("workload %s: table %s (%d bytes) is not larger than 4x its block cache (%d bytes)",
					r.w.name, t, segs[t], r.w.cacheBytes)
			}
			info[t+"_segment_over_cache"] = float64(segs[t]) / float64(r.w.cacheBytes)
		}
	}
	rows := map[string]int{}
	for _, t := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		res, err := d.plaintext("SELECT COUNT(*) FROM " + t)
		if err != nil {
			return err
		}
		if len(res) != 1 || len(res[0]) != 1 {
			return fmt.Errorf("counting %s returned %v", t, res)
		}
		n, ok := res[0][0].(int64)
		if !ok {
			return fmt.Errorf("counting %s returned %v", t, res)
		}
		rows[t] = int(n)
	}
	info["table_rows"] = rows
	r.note(info)
	return nil
}

// readDomain reads the parameter domain from the plaintext database.
func readDomain(d *deployment) (domain, error) {
	rows, err := d.plaintext(domainSQL)
	if err != nil {
		return domain{}, err
	}
	if len(rows) != 1 || len(rows[0]) != 4 {
		return domain{}, fmt.Errorf("domain query returned %d rows", len(rows))
	}
	row := rows[0]
	minKey, ok1 := row[0].(int64)
	maxKey, ok2 := row[1].(int64)
	lo, ok3 := row[2].(string)
	hi, ok4 := row[3].(string)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return domain{}, fmt.Errorf("domain query returned %v", row)
	}
	dom := domain{minKey: minKey, maxKey: maxKey}
	if dom.minDate, err = value.ParseDate(lo); err != nil {
		return domain{}, err
	}
	if dom.maxDate, err = value.ParseDate(hi); err != nil {
		return domain{}, err
	}
	return dom, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spansPath is where a traced run writes its spans.
func (r *runner) spansPath() string {
	return filepath.Join(r.dir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", r.w.name, r.seed))
}
