package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// traced fills rep with the per-layer metrics. It runs the workload
// untraced for part of the budget, replays those units with the layer
// timers on, replays unit 0 recording every allocation, and checks that
// each replay reproduced the untraced units' exact counts.
func traced(w workload, budget time.Duration, rep *report) error {
	plain, err := runFor(w, nil, budget*2/5, 0)
	rep.account(plain)
	if err != nil {
		return err
	}
	tr := &tracer{}
	timed, err := runFor(w, tr, 0, len(plain))
	rep.account(timed)
	if err != nil {
		return err
	}
	prof := &tracer{profile: true}
	runtime.MemProfileRate = 1
	profiled, err := runFor(w, prof, 0, 1)
	runtime.MemProfileRate = 0
	rep.account(profiled)
	if err == nil {
		err = prof.err
	}
	if err != nil {
		return err
	}
	if err := consistent(plain, timed, profiled); err != nil {
		return err
	}
	var inlineNs, inlinePkts int64
	if pw, ok := w.(*planeWorkload); ok {
		if inlineNs, inlinePkts, err = pw.inline(); err != nil {
			return err
		}
	}

	m := rep.Metrics
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	// Counts and virtual-time results are unit 0's, exact per seed;
	// rates divide totals over all units of a pass.
	ex := plain[0].exact
	sum := func(rs []result, f func(result) float64) float64 {
		t := 0.0
		for _, r := range rs {
			t += f(r)
		}
		return t
	}
	wall := func(r result) float64 { return float64(r.wall) }
	pkts := func(r result) float64 { return float64(r.pkts) }
	plainWall, tracedWall := sum(plain, wall), sum(timed, wall)
	plainPkts, tracedPkts := sum(plain, pkts), sum(timed, pkts)
	allocs := prof.allocs
	total := allocs.total()
	unitPkts := float64(plain[0].pkts)

	// Shares of the traced host time. On the simulator the spans nest
	// in one thread and the residual is what no wrapper covers. On the
	// plane the proxy's share is its inline cost against the plane's
	// per-packet wall time, and the residual is the handoff.
	proxyNs := div(float64(tr.proxy.ns), float64(tr.proxy.calls))
	var proxyShare, handoff float64
	if inlinePkts > 0 {
		proxyNs = float64(inlineNs) / float64(inlinePkts)
		handoff = plainWall/plainPkts - proxyNs
		proxyShare = proxyNs / (plainWall / plainPkts)
	} else {
		proxyShare = float64(tr.proxy.ns) / tracedWall
	}
	tcpShare := float64(tr.tcp.ns) / tracedWall
	benchShare := float64(tr.bench.ns) / tracedWall
	residual := 1 - proxyShare - tcpShare - benchShare
	if inlinePkts == 0 && (residual < 0 || tcpShare < 0) {
		return fmt.Errorf("layer spans (proxy %.3f, tcp %.3f, bench %.3f) exceed the traced host time",
			proxyShare, tcpShare, benchShare)
	}

	set("sim.events", "count", float64(ex.Events))
	set("sim.ns_per_event", "ns/event", div(plainWall, sum(plain, func(r result) float64 { return float64(r.exact.Events) })))
	set("residual.share", "ratio", residual)
	set("netsim.link_pkts", "count", float64(ex.LinkPkts))
	set("netsim.queue_drops", "count", float64(ex.QueueDrops))
	set("netsim.zero_cap_drops", "count", float64(ex.ZeroCapDrops))
	set("netsim.peak_queue", "count", float64(ex.PeakQueue))

	set("tcp.ns_per_seg", "ns/seg", div(float64(tr.tcp.ns), float64(tr.tcp.calls)))
	set("tcp.allocs_per_seg", "allocs/seg", div(float64(allocs["tcp"].objects), float64(ex.TCPSegs)))
	set("tcp.share", "ratio", tcpShare)
	set("tcp.retrans_segs", "count", float64(ex.Retrans))
	set("tcp.useful_ratio", "ratio", div(float64(ex.OutSegs), float64(ex.OutSegs+ex.Retrans)))

	set("proxy.ns_per_pkt", "ns/pkt", proxyNs)
	set("proxy.inline_ns_per_pkt", "ns/pkt", proxyNs)
	set("proxy.allocs_per_pkt", "allocs/pkt", div(float64(allocs["proxy"].objects), unitPkts))
	set("proxy.share", "ratio", proxyShare)
	set("proxy.registry_misses", "count", float64(ex.RegistryMisses))
	set("flowlog.opened", "count", float64(ex.FlowOpened))
	set("flowlog.evicted", "count", float64(ex.FlowEvicted))
	set("flowlog.retrans", "count", float64(ex.FlowRetrans))

	var pc planeCounters
	var ops []time.Duration
	var gcCycles []float64
	var gcCPU, cpu float64
	for _, r := range plain {
		pc.bursts += r.plane.bursts
		pc.batches += r.plane.batches
		pc.wakeups += r.plane.wakeups
		pc.stalls += r.plane.stalls
		ops = append(ops, r.ops...)
		gcCycles = append(gcCycles, float64(r.gc.gcCycles))
		gcCPU += r.gc.gcCPU
		cpu += r.gc.totalCPU
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	set("dataplane.handoff_ns_per_pkt", "ns/pkt", handoff)
	set("dataplane.stalls_per_pkt", "ratio", div(float64(pc.stalls), plainPkts))
	set("dataplane.pkts_per_batch", "pkts/batch", div(plainPkts, float64(pc.batches)))
	set("dataplane.wakeups_per_burst", "ratio", div(float64(pc.wakeups), float64(pc.bursts)))
	set("dataplane.dispatch_ns_per_pkt", "ns/pkt", div(float64(tr.dispatch.ns), tracedPkts))
	set("op_p99_us", "us", us(quantileDur(ops, 0.99)))
	set("ops_per_s", "1/s", div(float64(len(ops)), plainWall/1e9))

	set("policy.fires", "count", float64(ex.PolicyFires))
	set("policy.reverts", "count", float64(ex.PolicyReverts))

	set("max_rss_mb", "MB", maxRSSMB())
	set("gc.cycles", "count", median(gcCycles))
	set("gc.cpu_share", "ratio", div(gcCPU, cpu))
	set("allocs_per_pkt", "allocs/pkt", div(float64(total.objects), unitPkts))
	set("alloc_bytes_per_pkt", "B/pkt", div(float64(total.bytes), unitPkts))

	set("bench.ns_per_pkt", "ns/pkt", div(float64(tr.bench.ns+tr.gen.ns), tracedPkts))
	set("bench.share", "ratio", benchShare)
	// The traced pass replays the untraced pass's units one for one.
	set("trace.overhead", "ratio", tracedWall/plainWall-1)

	set("virt.goodput_mbps", "Mb/s", ex.Goodput)
	set("virt.fct_p50_ms", "ms", ex.FctP50)
	set("virt.fct_p99_ms", "ms", ex.FctP99)
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
