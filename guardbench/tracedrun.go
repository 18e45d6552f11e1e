package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type tracedResult struct {
	metrics map[string]metric
	windows []windowStats
	ledger  map[string]float64
	spans   string
}

// tracedRun sets up the traced guard, measures it like the untraced one
// and turns the difference of its two ledger marks into the (T) metrics,
// then replays the captured traffic for the (R) metrics. Traced times are
// divided by the host factor of the traced interval. banner and names are
// the first untraced guard's banner and /metrics names: the traced guard
// must print the same banner and export the same metrics.
func tracedRun(o options, lg *loadgen, ansAddr string, cpu int, banner, names []string, wl workload, untracedUS float64) (tracedResult, error) {
	var tr tracedResult
	self, err := os.Executable()
	if err != nil {
		return tr, err
	}
	tr.spans = filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.csv", o.workload, o.seed))
	g, _, err := setup(lg, []string{self, "-serve-traced", "-spans", tr.spans, "-ans", ansAddr})
	if err != nil {
		return tr, err
	}
	defer g.stopGraceful()
	if normalizedBanner(g.banner) != normalizedBanner(banner) {
		return tr, fmt.Errorf("traced guard's banner %q differs from dnsguardd's %q", g.banner, banner)
	}
	type mark struct {
		l      ledgerCounts
		ops    int64
		loadNS int64
	}
	var marks []mark
	var markErr error
	lg.cap = capture{on: true}
	ph, err := measure(lg, g, cpu, time.Duration(o.seconds)*time.Second, func() {
		line, err := g.request("mark")
		var m mark
		if err == nil {
			err = json.Unmarshal([]byte(line), &m.l)
		}
		if err != nil && markErr == nil {
			markErr = fmt.Errorf("ledger mark: %w", err)
		}
		m.ops, m.loadNS = lg.c.ops, cpuNow()
		marks = append(marks, m)
	})
	lg.cap.on = false
	if err != nil {
		return tr, err
	}
	if markErr != nil {
		return tr, markErr
	}
	if err := ph.check(); err != nil {
		return tr, fmt.Errorf("traced run: %w", err)
	}
	if got := metricNames(ph.metrics); !slices.Equal(got, names) {
		return tr, fmt.Errorf("traced guard exports metrics %q, dnsguardd %q", got, names)
	}
	if line, err := g.request("spans"); err != nil || line != "ok" {
		return tr, fmt.Errorf("writing spans: %v %q", err, line)
	}
	if len(marks) != 2 {
		return tr, fmt.Errorf("traced run took %d ledger marks, want 2", len(marks))
	}
	a, b := marks[0], marks[1]
	ops := float64(b.ops - a.ops)
	if ops <= 0 {
		return tr, fmt.Errorf("traced run answered no op")
	}
	f := float64(b.loadNS-a.loadNS) / ops / wl.r0
	d := func(x, y int64) float64 { return float64(y - x) }
	cpuUS := func(acts ...int) float64 {
		var ns float64
		for _, k := range acts {
			ns += d(a.l.CPU[k], b.l.CPU[k])
		}
		return ns / 1e3 / f
	}
	tracedUS := ph.guardNSPerOp(wl.r0) / 1e3
	procNS := d(a.l.ProcCPU, b.l.ProcCPU)
	var layered float64
	for k := 1; k < nAct; k++ {
		layered += d(a.l.CPU[k], b.l.CPU[k])
	}
	tr.metrics = map[string]metric{
		"realnet.reads_per_op":       {d(a.l.InReads, b.l.InReads) / ops, "1/op"},
		"realnet.pkts_per_read":      {ratio(d(a.l.InPkts, b.l.InPkts), d(a.l.InReads, b.l.InReads)), "1/read"},
		"realnet.writes_per_op":      {d(a.l.Writes, b.l.Writes) / ops, "1/op"},
		"realnet.read_us_per_op":     {cpuUS(actReadIn, actReadUp) / ops, "us"},
		"realnet.write_us_per_op":    {cpuUS(actWrite) / ops, "us"},
		"engine.handle_us_per_pkt":   {ratio(cpuUS(actHandle), d(a.l.Pkts, b.l.Pkts)), "us"},
		"guard.upstream_us_per_resp": {ratio(cpuUS(actUpstream), d(a.l.UpResps, b.l.UpResps)), "us"},
		"guard.allocs_per_op":        {(float64(b.l.Mallocs-a.l.Mallocs) - d(a.l.MACCalls, b.l.MACCalls)) / ops, "1/op"},
		"guard.gc_cpu_fraction":      {ratio(b.l.GCCPU-a.l.GCCPU, b.l.TotalCPU-a.l.TotalCPU), "ratio"},
		"cookie.mac_calls_per_op":    {d(a.l.MACCalls, b.l.MACCalls) / ops, "1/op"},
		"cookie.mac_us_per_op":       {cpuUS(actMAC) / ops, "us"},
		"trace.overhead_ratio":       {ratio(tracedUS, untracedUS) - 1, "ratio"},
		"ledger.residual_ratio":      {ratio(procNS-layered, procNS), "ratio"},
	}
	tr.ledger = make(map[string]float64, nAct)
	for k := 0; k < nAct; k++ {
		tr.ledger[actNames[k]+"_us_per_op"] = cpuUS(k) / ops
	}
	tr.windows = ph.windows
	rm, err := replay(&lg.cap, o.workload)
	if err != nil {
		return tr, err
	}
	for k, v := range rm {
		tr.metrics[k] = v
	}
	return tr, nil
}
