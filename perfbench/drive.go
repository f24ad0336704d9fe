package main

// The closed-loop load generator and the correctness check.

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op-stream phases: warm-up and timed window draw different ops.
const (
	phaseWarm  = 0
	phaseTimed = 1
)

// checked is an executed op kept for the correctness check.
type checked struct {
	o   op
	out outcome
}

// clientRun is what one client did in a timed window.
type clientRun struct {
	lat    []time.Duration // every op, in order
	shapes []string        // shape of each op in lat
	failed int64
	blocks []time.Duration // wall time of each whole block
	// count-block totals: the first block is a fixed op sequence, so these
	// repeat exactly for a seed.
	countWire, countRows, countCells int64
	checks                           []checked
}

// counts are a window's count-block totals and the deployment's sizes;
// for a seed they repeat exactly, traced or not.
type counts struct {
	ops, wire, rows, cells int64
	encBytes, plainBytes   int64
}

func countsOf(w *workload, d *deployment, wr *windowRun) counts {
	c := counts{encBytes: d.encBytes, plainBytes: d.plainBytes}
	for _, cr := range wr.clients {
		c.ops += int64(w.block)
		c.wire += cr.countWire
		c.rows += cr.countRows
		c.cells += cr.countCells
	}
	return c
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat: the
// total and the part stolen by the hypervisor. ok is false where there is
// no /proc/stat.
func cpuTicks() (total, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// windowRun is one timed window: what each client did, the wall time, and
// the share of the machine's CPU time the hypervisor stole meanwhile (-1
// when unknown), which shows how contended the host was.
type windowRun struct {
	clients []*clientRun
	wall    time.Duration
	steal   float64
}

// window runs every conn in a closed loop over its timed op stream, in
// whole blocks, until dur has passed; every client runs at least one
// block. atBlock, if set, is called on the client's goroutine before each
// of its blocks.
func window(w *workload, d *deployment, seed int64, dom domain, dur time.Duration, atBlock func(c, block int)) *windowRun {
	total0, steal0, ok0 := cpuTicks()
	runs := make([]*clientRun, len(d.conns))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range d.conns {
		runs[c] = &clientRun{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr, cn := runs[c], d.conns[c]
			next := w.stream(seed, c, phaseTimed, dom)
			for b := 0; b == 0 || time.Now().Before(deadline); b++ {
				if atBlock != nil {
					atBlock(c, b)
				}
				bstart := time.Now()
				for i := 0; i < w.block; i++ {
					o := next()
					t := time.Now()
					out, err := cn.run(o)
					cr.lat = append(cr.lat, time.Since(t))
					cr.shapes = append(cr.shapes, o.shape)
					if err != nil {
						cr.failed++
						continue
					}
					if b == 0 {
						cr.countWire += out.wireBytes
						cr.countRows += int64(len(out.rows))
						cr.countCells += int64(len(out.rows) * out.cols)
						if w.checkEvery > 0 && i%w.checkEvery == 0 {
							cr.checks = append(cr.checks, checked{o, out})
						}
					}
				}
				cr.blocks = append(cr.blocks, time.Since(bstart))
			}
		}(c)
	}
	wg.Wait()
	wr := &windowRun{clients: runs, wall: time.Since(start), steal: -1}
	if total1, steal1, ok := cpuTicks(); ok0 && ok && total1 > total0 {
		wr.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return wr
}

// warmUp runs each client's warm-up ops one after another and returns them
// all for the correctness check, with the number that failed.
func warmUp(w *workload, d *deployment, seed int64, dom domain) ([]checked, int64) {
	var out []checked
	var failed int64
	for c, cn := range d.conns {
		next := w.stream(seed, c, phaseWarm, dom)
		for i := 0; i < w.warm; i++ {
			o := next()
			res, err := cn.run(o)
			if err != nil {
				failed++
				continue
			}
			out = append(out, checked{o, res})
		}
	}
	return out, failed
}

// verify runs each checked op's plaintext twin and returns how many
// results differ or could not be compared.
func verify(d *deployment, checks []checked) int64 {
	var bad int64
	for _, ch := range checks {
		want, err := d.plaintext(ch.o.plainSQL)
		if err != nil || !sameRows(ch.out.rows, want, ch.o.ordered) {
			bad++
		}
	}
	return bad
}

// sameRows compares two results cell by cell, in order when ordered, as
// multisets otherwise. Floats compare at 6 significant digits: sharded
// SUM/AVG over floats may differ in the last place (see package monomi).
func sameRows(got, want [][]any, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := canonical(got, ordered), canonical(want, ordered)
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

func canonical(rows [][]any, ordered bool) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if f, ok := v.(float64); ok {
				parts[j] = fmt.Sprintf("%.6g", f)
			} else {
				parts[j] = fmt.Sprint(v)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// percentile is the q-quantile of sorted values, interpolated linearly
// between the two nearest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
