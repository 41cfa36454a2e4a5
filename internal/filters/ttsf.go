package filters

import (
	"bytes"
	"fmt"

	"repro/internal/filter"
	"repro/internal/ip"
	"repro/internal/tcp"
)

// ttsf is the TCP-Transparency-Support Filter of thesis §8.1: the
// mechanism that lets data-manipulation services (rdrop, comp,
// discard...) permanently remove, shrink, or grow TCP segment payloads
// while both endpoints continue to see a semantically consistent
// stream.
//
// It works by maintaining, per stream, the mapping between the
// original (wired sender) sequence space and the modified (wireless)
// sequence space:
//
//   - data segments heading to the mobile have their sequence numbers
//     rewritten to the modified space, after the service filters have
//     had their turn at the payload (the TTSF's out method runs at a
//     priority between the services and the tcp checksum filter);
//   - acknowledgements from the mobile have their ack numbers
//     translated back to the original space, taking the "upper
//     preimage" so that acknowledged modified data acknowledges all the
//     original bytes it stands for — including bytes a service dropped;
//   - retransmissions of already-serviced ranges are reconstructed
//     from a record of past edits, so the mobile always sees the same
//     transformation regardless of how often the sender retransmits
//     (§8.1.4's "TCP-specific issues");
//   - when a service drops the segment at the mobile's ack frontier,
//     the TTSF acknowledges the dropped bytes to the sender itself —
//     otherwise the sender would retransmit them forever.
//
// The key names the serviced data direction (wired sender → mobile).
type ttsf struct{}

// NewTTSF returns the TTSF factory.
func NewTTSF() filter.Factory { return &ttsf{} }

func (*ttsf) Name() string              { return "ttsf" }
func (*ttsf) Priority() filter.Priority { return PriorityTTSF }
func (*ttsf) Description() string {
	return "sequence-space remapping for transparent payload modification"
}

// TTSFStats counts remapping events for the experiment harness.
type TTSFStats struct {
	Edits             int64 // recorded transformations (drop/shrink/grow)
	BytesIn           int64 // original payload bytes entering
	BytesOut          int64 // modified payload bytes leaving
	Reconstructed     int64 // retransmissions rebuilt from the edit log
	SynthesizedAcks   int64 // ACKs injected to cover dropped frontiers
	Unreconstructable int64 // retransmissions dropped (partial overlap)
}

// edit records one transformation of an original sequence range.
type edit struct {
	origStart uint32
	origLen   uint32
	newBytes  []byte // transformed payload; empty = dropped
}

func (e *edit) origEnd() uint32 { return e.origStart + e.origLen }
func (e *edit) delta() int64    { return int64(len(e.newBytes)) - int64(e.origLen) }

type ttsfInst struct {
	env filter.Env
	fwd filter.Key

	started  bool   // frontier initialised
	frontier uint32 // original space: end of the processed region
	base     int64  // cumulative delta of pruned edits
	edits    []edit // live edits, ascending origStart

	// In-hook snapshot of the pre-service payload of the packet
	// currently traversing the queue.
	pendingSeq   uint32
	pendingOrig  []byte
	pendingValid bool

	// Mobile's cumulative ack high-water (modified space) and the
	// highest ack forwarded/synthesized to the sender (original space).
	mobileAckNew  uint32
	haveMobileAck bool
	maxAckFwd     uint32
	haveAckFwd    bool

	// Reverse-packet template for synthesizing ACKs.
	haveTemplate bool
	tmplSeq      uint32
	tmplWindow   uint16
	tmplSrc      ip.Addr
	tmplDst      ip.Addr

	stats TTSFStats
}

func (f *ttsf) New(env filter.Env, k filter.Key, args []string) error {
	inst := &ttsfInst{env: env, fwd: k}
	detachRev, err := env.Attach(k.Reverse(), filter.Hooks{
		Filter: "ttsf", Priority: PriorityTTSF,
		Out: inst.reverseOut,
	})
	if err != nil {
		return err
	}
	_, err = env.Attach(k, filter.Hooks{
		Filter: "ttsf", Priority: PriorityTTSF,
		In:      inst.forwardIn,
		Out:     inst.forwardOut,
		OnClose: detachRev,
		State:   inst,
		Stats:   func() any { return inst.stats },
	})
	if err != nil {
		detachRev()
	}
	return err
}

// --- migration ----------------------------------------------------------------

// ttsf state snapshot flag bits.
const (
	ttsfFlagStarted = 1 << iota
	ttsfFlagMobileAck
	ttsfFlagAckFwd
	ttsfFlagTemplate
)

// SnapshotState implements filter.StateSnapshotter: it serializes the
// full sequence-remapping state — frontier, pruned-edit base, the live
// edit log, both ack high-waters, the ACK-synthesis template, and the
// stats — so a peer SP can continue the remapping mid-stream. The
// pending in-packet snapshot is deliberately excluded: snapshots are
// taken at a batch boundary, where no packet is traversing the queue.
func (t *ttsfInst) SnapshotState() ([]byte, error) {
	var w stateWriter
	var flags byte
	if t.started {
		flags |= ttsfFlagStarted
	}
	if t.haveMobileAck {
		flags |= ttsfFlagMobileAck
	}
	if t.haveAckFwd {
		flags |= ttsfFlagAckFwd
	}
	if t.haveTemplate {
		flags |= ttsfFlagTemplate
	}
	w.u8(flags)
	w.u32(t.frontier)
	w.i64(t.base)
	w.u32(t.mobileAckNew)
	w.u32(t.maxAckFwd)
	w.u32(t.tmplSeq)
	w.u16(t.tmplWindow)
	w.u32(uint32(t.tmplSrc))
	w.u32(uint32(t.tmplDst))
	w.i64(t.stats.Edits)
	w.i64(t.stats.BytesIn)
	w.i64(t.stats.BytesOut)
	w.i64(t.stats.Reconstructed)
	w.i64(t.stats.SynthesizedAcks)
	w.i64(t.stats.Unreconstructable)
	w.u32(uint32(len(t.edits)))
	for i := range t.edits {
		e := &t.edits[i]
		w.u32(e.origStart)
		w.u32(e.origLen)
		w.bytes(e.newBytes)
	}
	return w.b, nil
}

// RestoreState implements filter.StateSnapshotter on a freshly
// instantiated instance at the destination proxy.
func (t *ttsfInst) RestoreState(b []byte) error {
	r := stateReader{b: b}
	flags := r.u8()
	frontier := r.u32()
	base := r.i64()
	mobileAckNew := r.u32()
	maxAckFwd := r.u32()
	tmplSeq := r.u32()
	tmplWindow := r.u16()
	tmplSrc := ip.Addr(r.u32())
	tmplDst := ip.Addr(r.u32())
	stats := TTSFStats{
		Edits:             r.i64(),
		BytesIn:           r.i64(),
		BytesOut:          r.i64(),
		Reconstructed:     r.i64(),
		SynthesizedAcks:   r.i64(),
		Unreconstructable: r.i64(),
	}
	n := int(r.u32())
	var edits []edit
	for i := 0; i < n && r.err == nil; i++ {
		edits = append(edits, edit{
			origStart: r.u32(),
			origLen:   r.u32(),
			newBytes:  r.bytes(),
		})
	}
	if err := r.done(); err != nil {
		return fmt.Errorf("ttsf: restore: %w", err)
	}
	t.started = flags&ttsfFlagStarted != 0
	t.haveMobileAck = flags&ttsfFlagMobileAck != 0
	t.haveAckFwd = flags&ttsfFlagAckFwd != 0
	t.haveTemplate = flags&ttsfFlagTemplate != 0
	t.frontier = frontier
	t.base = base
	t.mobileAckNew = mobileAckNew
	t.maxAckFwd = maxAckFwd
	t.tmplSeq = tmplSeq
	t.tmplWindow = tmplWindow
	t.tmplSrc = tmplSrc
	t.tmplDst = tmplDst
	t.stats = stats
	t.edits = edits
	t.pendingValid = false
	return nil
}

var _ filter.StateSnapshotter = (*ttsfInst)(nil)

// --- mapping ------------------------------------------------------------------

// deltaBefore returns the cumulative sequence-space delta of all edits
// that end at or before original position s.
func (t *ttsfInst) deltaBefore(s uint32) int64 {
	d := t.base
	for i := range t.edits {
		if !seqLEu(t.edits[i].origEnd(), s) {
			break
		}
		d += t.edits[i].delta()
	}
	return d
}

// mapOrig translates an original-space sequence number at an edit
// boundary (or in an identity region) to the modified space.
func (t *ttsfInst) mapOrig(s uint32) uint32 {
	return uint32(int64(s) + t.deltaBefore(s))
}

// invMapAck translates a cumulative ack from the modified space back
// to the original space, taking the upper preimage: an ack that covers
// a transformed range acknowledges every original byte behind it, and
// an ack sitting exactly at a dropped range acknowledges the dropped
// bytes too.
func (t *ttsfInst) invMapAck(a uint32) uint32 {
	d := t.base
	for i := range t.edits {
		e := &t.edits[i]
		newStart := uint32(int64(e.origStart) + d)
		newEnd := newStart + uint32(len(e.newBytes))
		if seqLTu(a, newStart) {
			return uint32(int64(a) - d)
		}
		if seqLTu(a, newEnd) {
			// Partial ack of a transformed range: conservatively claim
			// nothing of the original range.
			return e.origStart
		}
		d += e.delta()
	}
	return uint32(int64(a) - d)
}

// --- forward path ---------------------------------------------------------------

// forwardIn snapshots the pre-service payload so forwardOut can
// compare it with the post-service payload.
func (t *ttsfInst) forwardIn(p *filter.Packet) {
	t.pendingValid = false
	if p.TCP == nil {
		return
	}
	if p.TCP.Flags&tcp.FlagSYN != 0 && !t.started {
		t.started = true
		t.frontier = p.TCP.Seq + 1
		return
	}
	if !t.started {
		// Attached mid-stream: the first segment seen defines the
		// frontier; everything before it passes identically.
		t.started = true
		t.frontier = p.TCP.Seq
	}
	t.pendingSeq = p.TCP.Seq
	t.pendingOrig = append(t.pendingOrig[:0], p.TCP.Payload...)
	t.pendingValid = true
}

func (t *ttsfInst) forwardOut(p *filter.Packet) {
	if p.TCP == nil || !t.started {
		return
	}
	if p.TCP.Flags&tcp.FlagSYN != 0 {
		return // handshake passes untouched
	}
	seq := p.TCP.Seq
	origLen := uint32(len(t.pendingOrig))
	if !t.pendingValid {
		origLen = uint32(len(p.TCP.Payload))
	}

	if origLen == 0 {
		// Pure ACK / FIN / window probe: remap the sequence number.
		t.rewriteSeq(p, t.mapOrig(seq))
		return
	}

	end := seq + origLen
	switch {
	case seq == t.frontier || seqLTu(t.frontier, seq):
		// New data (possibly with a gap we'll see later as a
		// retransmission): record the service filters' work.
		t.recordNew(p, seq, origLen)
	default:
		// Retransmission of serviced data.
		if t.haveAckFwd && seqLEu(end, t.maxAckFwd) {
			// The whole range is already acknowledged toward the
			// sender (its covering ack may have been lost): drop the
			// stale copy and re-assert the ack. Edits below this point
			// may have been pruned, so reconstruction is not possible
			// — nor needed.
			p.Drop()
			t.ackDroppedFrontier(true)
			return
		}
		// Rebuild it from the record.
		if seqLTu(t.frontier, end) {
			// Straddles the frontier: cut at the frontier; the tail
			// will arrive again as new data later. Only the recorded
			// prefix can be reproduced faithfully.
			end = t.frontier
			origLen = end - seq
		}
		t.reconstruct(p, seq, origLen)
	}
}

// recordNew processes a segment of not-yet-seen data after the service
// filters have modified (or dropped) it.
func (t *ttsfInst) recordNew(p *filter.Packet, seq, origLen uint32) {
	t.stats.BytesIn += int64(origLen)
	newSeq := t.mapOrig(seq)
	cur := p.TCP.Payload
	switch {
	case p.Dropped():
		t.edits = append(t.edits, edit{origStart: seq, origLen: origLen})
		t.stats.Edits++
	case t.pendingValid && !bytes.Equal(cur, t.pendingOrig):
		nb := make([]byte, len(cur))
		copy(nb, cur)
		t.edits = append(t.edits, edit{origStart: seq, origLen: origLen, newBytes: nb})
		t.stats.Edits++
		t.stats.BytesOut += int64(len(cur))
	default:
		t.stats.BytesOut += int64(origLen)
	}
	t.frontier = seq + origLen
	if !p.Dropped() {
		t.rewriteSeq(p, newSeq)
	} else {
		t.ackDroppedFrontier(false)
	}
}

// reconstruct rebuilds a retransmitted range from the edit log:
// identity gaps come from the packet's own (pre-service) bytes, edited
// ranges from their recorded transformations. Ranges that only
// partially overlap an edit cannot be reproduced and are dropped — the
// sender's next retransmission will align.
func (t *ttsfInst) reconstruct(p *filter.Packet, seq, origLen uint32) {
	orig := t.pendingOrig
	if !t.pendingValid {
		orig = p.TCP.Payload
	}
	end := seq + origLen
	var out []byte
	cur := seq
	truncated := false
	for i := range t.edits {
		e := &t.edits[i]
		if seqLEu(e.origEnd(), cur) {
			continue
		}
		if seqLEu(end, e.origStart) {
			break
		}
		if seqLTu(cur, e.origStart) {
			out = append(out, orig[cur-seq:e.origStart-seq]...)
			cur = e.origStart
		}
		if cur != e.origStart {
			// Starts inside a transformed range: unreproducible.
			t.stats.Unreconstructable++
			p.Drop()
			return
		}
		if seqLTu(end, e.origEnd()) {
			// The retransmission ends inside this edit (the sender
			// re-chunked the window differently): forward only the
			// reconstructable prefix. The covering ack for it moves
			// the sender's next chunk to the edit boundary.
			truncated = true
			break
		}
		out = append(out, e.newBytes...)
		cur = e.origEnd()
	}
	if !truncated && seqLTu(cur, end) {
		out = append(out, orig[cur-seq:end-seq]...)
	}
	t.stats.Reconstructed++
	if len(out) == 0 {
		p.Drop()
		// A fully dropped retransmission means the sender missed (or
		// never got) the covering ack; re-assert it even if we believe
		// we already sent it.
		t.ackDroppedFrontier(true)
		return
	}
	newSeq := t.mapOrig(seq)
	if !bytes.Equal(out, p.TCP.Payload) {
		p.TCP.Payload = out
		p.MarkDirty()
	}
	t.rewriteSeq(p, newSeq)
}

func (t *ttsfInst) rewriteSeq(p *filter.Packet, newSeq uint32) {
	if p.TCP.Seq != newSeq {
		p.TCP.Seq = newSeq
		p.MarkDirty()
	}
}

// --- reverse path ---------------------------------------------------------------

// reverseOut translates mobile acknowledgements into the sender's
// sequence space and keeps the synthesis template fresh.
func (t *ttsfInst) reverseOut(p *filter.Packet) {
	if p.TCP == nil || p.TCP.Flags&tcp.FlagACK == 0 {
		return
	}
	t.haveTemplate = true
	t.tmplSeq = p.TCP.Seq
	if p.TCP.Flags&tcp.FlagSYN != 0 {
		// A SYN consumes sequence space; a synthesized ACK must use
		// the next valid sequence number or the sender discards it.
		t.tmplSeq++
	}
	t.tmplWindow = p.TCP.Window
	t.tmplSrc = p.IP.Src
	t.tmplDst = p.IP.Dst

	a := p.TCP.Ack
	if !t.haveMobileAck || seqLTu(t.mobileAckNew, a) {
		t.mobileAckNew = a
		t.haveMobileAck = true
	}
	orig := t.invMapAck(a)
	if orig != a {
		p.TCP.Ack = orig
		p.MarkDirty()
	}
	if !t.haveAckFwd || seqLTu(t.maxAckFwd, orig) {
		t.maxAckFwd = orig
		t.haveAckFwd = true
		t.prune()
	}
}

// ackDroppedFrontier injects an acknowledgement to the sender covering
// original bytes that a service dropped at the mobile's ack frontier —
// bytes the mobile will never see or ack.
func (t *ttsfInst) ackDroppedFrontier(force bool) {
	if !t.haveMobileAck || !t.haveTemplate {
		return
	}
	orig := t.invMapAck(t.mobileAckNew)
	if t.haveAckFwd && !seqLTu(t.maxAckFwd, orig) && !(force && orig == t.maxAckFwd) {
		return
	}
	t.maxAckFwd = orig
	t.haveAckFwd = true
	seg := tcp.Segment{
		SrcPort: t.fwd.DstPort, DstPort: t.fwd.SrcPort,
		Seq: t.tmplSeq, Ack: orig,
		Flags: tcp.FlagACK, Window: t.tmplWindow,
	}
	h := ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: t.tmplSrc, Dst: t.tmplDst}
	raw, err := h.Marshal(seg.Marshal(t.tmplSrc, t.tmplDst))
	if err != nil {
		t.env.Logf("ttsf: synthesize ack: %v", err)
		return
	}
	t.stats.SynthesizedAcks++
	t.env.Inject(raw)
	t.prune()
}

// prune discards edits wholly below the sender's acknowledged
// frontier; the sender will never retransmit them.
func (t *ttsfInst) prune() {
	if !t.haveAckFwd {
		return
	}
	n := 0
	for n < len(t.edits) && seqLEu(t.edits[n].origEnd(), t.maxAckFwd) {
		t.base += t.edits[n].delta()
		n++
	}
	if n > 0 {
		t.edits = append(t.edits[:0], t.edits[n:]...)
	}
}
