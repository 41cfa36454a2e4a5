package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// span accumulates host time and calls spent inside one layer.
type span struct {
	ns    int64
	calls int64
}

func (s *span) add(t0 time.Time) {
	s.ns += int64(time.Since(t0))
	s.calls++
}

// tracer times the calls into each layer that the benchmark can wrap
// from outside the program. A nil *tracer is the untraced run.
type tracer struct {
	proxy    span // node packet hook: classifier, flow log, filter queue
	tcp      span // tcp.Stack.Deliver on the end hosts, minus bench
	bench    span // the benchmark's own checks, nested in tcp or the sink
	gen      span // the plane workloads' packet generator
	dispatch span // dataplane DispatchBurst and Flush calls

	// profile makes begin and end snapshot the allocation profile
	// around each measured phase; allocs sums the differences.
	profile bool
	snap    allocProfile
	allocs  allocProfile
	err     error
}

// begin and end bracket a unit's measured phase.
func (tr *tracer) begin() {
	if tr != nil && tr.profile && tr.err == nil {
		tr.snap, tr.err = readAllocProfile()
	}
}

func (tr *tracer) end() {
	if tr == nil || !tr.profile || tr.err != nil {
		return
	}
	p, err := readAllocProfile()
	if err != nil {
		tr.err = err
		return
	}
	if tr.allocs == nil {
		tr.allocs = allocProfile{}
	}
	for k, v := range p.sub(tr.snap) {
		c := tr.allocs[k]
		tr.allocs[k] = allocCount{c.objects + v.objects, c.bytes + v.bytes}
	}
}

// hookLayer wraps a node's packet hook. Its method name marks proxy
// allocations in the allocation profile.
type hookLayer struct {
	tr   *tracer
	next netsim.Hook
}

func (h *hookLayer) hook(raw []byte, in *netsim.Iface) [][]byte {
	t0 := time.Now()
	out := h.next(raw, in)
	h.tr.proxy.add(t0)
	return out
}

// tcpLayer replaces an end host's TCP protocol handler with the same
// call to tcp.Stack.Deliver, timed.
type tcpLayer struct {
	tr *tracer
	st *tcp.Stack
}

func (l *tcpLayer) deliver(h ip.Header, payload, _ []byte, _ *netsim.Iface) {
	t0 := time.Now()
	nested := l.tr.bench.ns
	l.st.Deliver(h.Src, h.Dst, payload)
	l.tr.tcp.ns += int64(time.Since(t0)) - (l.tr.bench.ns - nested)
	l.tr.tcp.calls++
}

// wrapSystem installs the proxy and TCP wrappers on a built system.
func (tr *tracer) wrapSystem(sys *core.System) {
	h := &hookLayer{tr: tr, next: sys.ProxyHost.PacketHook()}
	sys.ProxyHost.SetHook(h.hook)
	for _, host := range []struct {
		node *netsim.Node
		st   *tcp.Stack
	}{{sys.Wired, sys.WiredTCP}, {sys.Mobile, sys.MobileTCP}} {
		l := &tcpLayer{tr: tr, st: host.st}
		host.node.RegisterProto(ip.ProtoTCP, l.deliver)
	}
}

// allocLayers names the frames that mark a layer boundary on an
// allocation's stack; the innermost marked frame owns the allocation.
var allocLayers = []struct{ frame, layer string }{
	{"main.(*hookLayer)", "proxy"},
	{"proxy.(*Proxy).InterceptAppend", "proxy"}, // concurrent shards only
	{"main.(*tcpLayer)", "tcp"},
	{"main.(*stream)", "gen"},
	{"dataplane.(*worker)", "dataplane"},
	{"dataplane.(*Plane).Dispatch", "dataplane"},
}

type allocCount struct{ objects, bytes int64 }

// allocProfile is a snapshot of the cumulative allocation profile,
// summed per layer ("" holds allocations no layer owns).
type allocProfile map[string]allocCount

// readAllocProfile publishes the allocations made so far with a full
// GC and sums the allocation profile by layer. With
// runtime.MemProfileRate = 1 every allocation is recorded, so the
// difference of two snapshots is exact.
func readAllocProfile() (allocProfile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 1); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	out := allocProfile{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur allocCount
	layer, inRecord := "", false
	flush := func() {
		if inRecord {
			c := out[layer]
			c.objects += cur.objects
			c.bytes += cur.bytes
			out[layer] = c
		}
		layer, inRecord = "", false
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#\t"):
			// Frames run innermost first: the first marked frame wins.
			if !inRecord || layer != "" {
				continue
			}
			for _, m := range allocLayers {
				if strings.Contains(line, m.frame) {
					layer = m.layer
					break
				}
			}
		case strings.Contains(line, "] @"):
			flush()
			// "inuse_objects: inuse_bytes [alloc_objects: alloc_bytes] @ pcs"
			open := strings.IndexByte(line, '[')
			end := strings.IndexByte(line, ']')
			if open < 0 || end < open || strings.HasPrefix(line, "heap profile") {
				continue
			}
			f := strings.Fields(strings.NewReplacer(":", " ").Replace(line[open+1 : end]))
			if len(f) != 2 {
				return nil, fmt.Errorf("allocation profile: bad record %q", line)
			}
			obj, err1 := strconv.ParseInt(f[0], 10, 64)
			byt, err2 := strconv.ParseInt(f[1], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("allocation profile: bad record %q", line)
			}
			cur, inRecord = allocCount{obj, byt}, true
		default:
			flush()
		}
	}
	flush()
	return out, sc.Err()
}

// sub returns the allocations made between snapshot o and p.
func (p allocProfile) sub(o allocProfile) allocProfile {
	d := allocProfile{}
	for k, v := range p {
		d[k] = allocCount{v.objects - o[k].objects, v.bytes - o[k].bytes}
	}
	return d
}

func (p allocProfile) total() allocCount {
	var t allocCount
	for _, v := range p {
		t.objects += v.objects
		t.bytes += v.bytes
	}
	return t
}

// heapPeak tracks the largest heap a measured phase reaches: live
// objects plus garbage not yet swept, sampled at regular points.
type heapPeak struct {
	s   [1]metrics.Sample
	max uint64
}

// heapSampleEvents is how many scheduler events pass between samples.
const heapSampleEvents = 4096

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.s[0].Name = "/memory/classes/heap/objects:bytes"
	return h
}

func (h *heapPeak) sample() {
	metrics.Read(h.s[:])
	h.max = max(h.max, h.s[0].Value.Uint64())
}

// runtimeStats holds the Go runtime's cumulative GC counters.
type runtimeStats struct {
	gcCycles        uint64
	gcCPU, totalCPU float64 // estimated CPU seconds
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
