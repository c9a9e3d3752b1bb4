// Engine state records: the one layout in which the engine's analysis
// state — virtual clocks and counters, quarantine marks, log lines,
// script globals of both backends, and per-connection analyzer and
// reassembly state — leaves the engine. This is the paper's
// transparent-state-management argument made concrete: because analysis
// state lives in typed runtime values rather than ad-hoc heap structures,
// the host can suspend and resume analysis without the analyzers'
// cooperation.
//
// A record describes the engine relative to a base. AppendDelta (wal.go)
// writes one against the previous flush; Checkpoint writes one against
// the empty engine — every connection dirty, every global whole, every
// quarantine mark present, every log line a tail — behind a short header
// naming the configuration it was taken under. writeRecord is the only
// writer and readRecord the only reader: RestoreEngine and ApplyDelta
// both go through it.
//
// Record layout, in order:
//
//	meta       the engine's clocks and counters (see Engine.meta)
//	quarantine u32 n; n x (vid u64, present bool, dropped u64)
//	log tails  u32 n; n x (stream string, u32 m; m x line string)
//	interp     u32 n; n x (global string, mode u8, body bytes)
//	exec x2    present bool [clock i64; u32 n; n x (index u32, mode u8, body bytes)]
//	closed     u32 n; n x ctx i64
//	conns      u32 n; n x connection (see encodeConn)
//
// Limitation: in-flight BinPAC++ parse state is held in suspended fibers
// (vm.Resumable), which have no serializable form; a record cannot carry
// a connection that is mid-parse in the binpac backend. The standard
// parsers keep their state in plain buffers and round-trip fully. Fault
// diagnostics (the Recorder) are intentionally not carried across a
// restore.

package bro

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"hilti/internal/analyzers"
	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/reassembly"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
)

// Val codec tags (engine-interpreter values).
const (
	valNil = iota
	valBool
	valCount
	valInt
	valDouble
	valString
	valAddr
	valSubnet
	valPort
	valTime
	valInterval
	valEnum
	valRecord
	valTable
	valVector
	valFunc
)

const valMaxDepth = 64

// conn flag bits.
const (
	cfTCP = 1 << iota
	cfStarted
	cfOrigSYN
	cfRespSYN
	cfRec
	cfStd
)

// Checkpoint serializes the engine's full analysis state to w: a header
// naming the configuration (parser, script backend, VM global count per
// executor) and then the state record against the empty engine. The
// engine must be between packets (the single-threaded engine always is;
// the pipeline quiesces each shard by scheduling the checkpoint as a job
// on the shard's own virtual thread).
func (e *Engine) Checkpoint(w io.Writer) error {
	enc := snapshot.NewEncoder(w)
	enc.String(e.cfg.Parser)
	enc.String(e.cfg.ScriptExec)
	for which := 0; which < 2; which++ {
		enc.U32(uint32(len(execOf(e, which))))
	}
	return e.writeRecord(enc, true)
}

// RestoreEngine builds a fresh engine for cfg and applies the state
// record checkpointed by Checkpoint. The configuration's parser and
// script backends, and the compiled programs' global counts, must match
// the checkpoint's.
func RestoreEngine(cfg Config, r io.Reader) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	dec := snapshot.NewDecoder(data)
	if p := dec.String(); dec.Err() == nil && p != cfg.Parser {
		return nil, fmt.Errorf("bro: checkpoint parser %q does not match config %q", p, cfg.Parser)
	}
	if s := dec.String(); dec.Err() == nil && s != cfg.ScriptExec {
		return nil, fmt.Errorf("bro: checkpoint script backend %q does not match config %q", s, cfg.ScriptExec)
	}
	for which := 0; which < 2; which++ {
		if n, have := int(dec.U32()), len(execOf(e, which)); dec.Err() == nil && n != have {
			return nil, fmt.Errorf("bro: checkpoint has %d VM globals, program has %d", n, have)
		}
	}
	rec, err := readRecord(dec)
	if err != nil {
		return nil, err
	}
	if err := e.applyRecord(rec); err != nil {
		return nil, err
	}
	return e, nil
}

// metaWords is the length of a record's fixed head.
const metaWords = 10

// meta returns the record's fixed head — the engine's clocks and
// counters — in wire order; setMeta is its inverse. The flow ledger and
// log-line count ride along so metrics stay monotonic (no reset, no
// double count) across a crash-only restore.
func (e *Engine) meta() [metaWords]uint64 {
	return [...]uint64{
		uint64(e.now),
		uint64(e.nextCtx),
		e.packets.Load(),
		e.events.Load(),
		e.parseErrs.Load(),
		e.budgetBlown.Load(),
		e.quarDropped.Load(),
		e.flowsOpened.Load(),
		e.flowsClosed.Load(),
		e.Logs.Written(),
	}
}

func (e *Engine) setMeta(m [metaWords]uint64) {
	e.now = int64(m[0])
	e.nextCtx = int64(m[1])
	e.packets.Store(m[2])
	e.events.Store(m[3])
	e.parseErrs.Store(m[4])
	e.budgetBlown.Store(m[5])
	e.quarDropped.Store(m[6])
	e.flowsOpened.Store(m[7])
	e.flowsClosed.Store(m[8])
	e.Logs.written.Store(m[9])
}

// writeRecord streams one state record to enc. In delta mode it writes
// what changed since the last flush and advances e.delta's base. In full
// mode it writes the engine as the delta from an empty engine and leaves
// e.delta untouched (it may be nil). Sections are sorted, so equal
// engines write equal bytes.
func (e *Engine) writeRecord(enc *snapshot.Encoder, full bool) error {
	ds := e.delta
	conns, closed := e.ctxs, map[int64]bool(nil)
	if !full {
		conns, closed = ds.dirtyConns, ds.closedCtxs
	}
	for _, c := range conns {
		if c.inFlightParse() {
			return fmt.Errorf("bro: cannot encode connection %s: in-flight binpac parse state", c.uid)
		}
	}

	for _, w := range e.meta() {
		enc.U64(w)
	}

	var quar []uint64
	if full {
		quar = sortedKeys(e.quarantined)
	} else {
		quar = sortedKeys(ds.quarTouched)
	}
	enc.U32(uint32(len(quar)))
	for _, vid := range quar {
		n, present := e.quarantined[vid]
		enc.U64(vid)
		enc.Bool(present)
		enc.U64(n)
	}

	// Log tails: the lines beyond those the base already holds.
	base := func(stream string) int {
		if full {
			return 0
		}
		return ds.flushed[stream]
	}
	var tails []string
	for _, name := range sortedKeys(e.Logs.streams) {
		if len(e.Logs.streams[name].lines) > base(name) {
			tails = append(tails, name)
		}
	}
	enc.U32(uint32(len(tails)))
	for _, name := range tails {
		lines := e.Logs.streams[name].lines
		enc.String(name)
		encodeStrings(enc, lines[base(name):])
		if !full {
			ds.flushed[name] = len(lines)
		}
	}

	var interp []globalRec
	if full {
		for _, name := range sortedKeys(e.interp.Globals) {
			// An unserializable global degrades: the restored side keeps
			// its freshly initialized value.
			if blob, ok := encodeInterpGlobal(e.interp.Globals[name]); ok {
				interp = append(interp, globalRec{name: name, mode: deltaWhole, body: blob})
			}
		}
	} else {
		interp = ds.interpDeltas(e)
	}
	enc.U32(uint32(len(interp)))
	for _, g := range interp {
		enc.String(g.name)
		enc.U8(g.mode)
		enc.Bytes(g.body)
	}

	for which := 0; which < 2; which++ {
		globals := execOf(e, which)
		enc.Bool(globals != nil)
		if globals == nil {
			continue
		}
		enc.I64(int64(execTM(e, which).Now()))
		var out []globalRec
		if full {
			for i, g := range globals {
				if blob, ok := encodeExecGlobal(g); ok {
					out = append(out, globalRec{idx: i, mode: deltaWhole, body: blob})
				}
			}
		} else {
			out = ds.execDeltas(globals, which)
		}
		enc.U32(uint32(len(out)))
		for _, g := range out {
			enc.U32(uint32(g.idx))
			enc.U8(g.mode)
			enc.Bytes(g.body)
		}
	}

	enc.U32(uint32(len(closed)))
	for _, ctx := range sortedKeys(closed) {
		enc.I64(ctx)
	}
	enc.U32(uint32(len(conns)))
	for _, ctx := range sortedKeys(conns) {
		encodeConn(enc, conns[ctx])
	}

	if err := enc.Err(); err != nil {
		return err
	}
	if !full {
		ds.dirtyConns = map[int64]*conn{}
		ds.closedCtxs = map[int64]bool{}
		ds.quarTouched = map[uint64]bool{}
	}
	return nil
}

// stateRecord is one decoded state record. readRecord checks its
// structure; applyRecord gives it meaning.
type stateRecord struct {
	meta   [metaWords]uint64
	quar   []quarMark
	logs   []logTail
	interp []globalRec
	exec   [2]execSection
	closed []int64
	conns  []connRecord
}

type quarMark struct {
	vid     uint64
	present bool
	dropped uint64
}

type logTail struct {
	stream string
	lines  []string
}

// globalRec is one script global's entry in a record: an interpreter
// global by name, a VM global by index.
type globalRec struct {
	name string
	idx  int
	mode byte
	body []byte
}

type execSection struct {
	present bool
	now     int64
	globals []globalRec
}

// readRecord decodes one state record from dec.
func readRecord(dec *snapshot.Decoder) (*stateRecord, error) {
	r := &stateRecord{}
	for i := range r.meta {
		r.meta[i] = dec.U64()
	}
	nq := dec.Len(10)
	for i := 0; i < nq && dec.Err() == nil; i++ {
		r.quar = append(r.quar, quarMark{vid: dec.U64(), present: dec.Bool(), dropped: dec.U64()})
	}
	ns := dec.Len(8)
	for i := 0; i < ns && dec.Err() == nil; i++ {
		r.logs = append(r.logs, logTail{stream: dec.String(), lines: decodeStrings(dec)})
	}
	ng := dec.Len(6)
	for i := 0; i < ng && dec.Err() == nil; i++ {
		g := globalRec{name: dec.String(), mode: dec.U8(), body: dec.Bytes()}
		if dec.Err() == nil && g.mode != deltaWhole && g.mode != deltaTableDiff {
			return nil, fmt.Errorf("bro: unknown interp delta mode %d", g.mode)
		}
		r.interp = append(r.interp, g)
	}
	for which := range r.exec {
		x := &r.exec[which]
		if x.present = dec.Bool(); !x.present {
			continue
		}
		x.now = dec.I64()
		nx := dec.Len(9)
		for i := 0; i < nx && dec.Err() == nil; i++ {
			g := globalRec{idx: int(dec.U32()), mode: dec.U8(), body: dec.Bytes()}
			if dec.Err() == nil && g.mode != deltaWhole && g.mode != deltaJournal {
				return nil, fmt.Errorf("bro: unknown exec delta mode %d", g.mode)
			}
			x.globals = append(x.globals, g)
		}
	}
	ncl := dec.Len(8)
	for i := 0; i < ncl && dec.Err() == nil; i++ {
		r.closed = append(r.closed, dec.I64())
	}
	nc := dec.Len(flow.KeyLen + 10)
	for i := 0; i < nc && dec.Err() == nil; i++ {
		r.conns = append(r.conns, readConn(dec))
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// applyRecord installs a state record onto the engine, which must be at
// the record's base: the empty engine for a checkpoint, the base snapshot
// plus all earlier records for a delta. It does not maintain delta
// tracking.
func (e *Engine) applyRecord(r *stateRecord) error {
	for which, x := range r.exec {
		if x.present != (execOf(e, which) != nil) {
			return fmt.Errorf("bro: record/config executor mismatch")
		}
	}
	e.setMeta(r.meta)
	for _, q := range r.quar {
		if q.present {
			e.quarantined[q.vid] = q.dropped
		} else {
			delete(e.quarantined, q.vid)
		}
	}
	for _, t := range r.logs {
		st, ok := e.Logs.streams[t.stream]
		if !ok {
			st = &logStream{name: t.stream}
			e.Logs.streams[t.stream] = st
		}
		st.lines = append(st.lines, t.lines...)
	}
	for _, g := range r.interp {
		if err := e.applyInterpGlobal(g); err != nil {
			return err
		}
	}
	for which, x := range r.exec {
		if err := e.applyExecSection(which, x); err != nil {
			return err
		}
	}
	for _, ctx := range r.closed {
		if c, ok := e.ctxs[ctx]; ok {
			e.dropConnState(c)
		}
	}
	for i := range r.conns {
		c, err := e.restoreConn(&r.conns[i])
		if err != nil {
			return err
		}
		if old, ok := e.ctxs[c.ctx]; ok {
			e.dropConnState(old)
		}
		ck, _ := c.key.Canonical()
		if old, ok := e.conns[ck]; ok {
			e.dropConnState(old)
		}
		e.addConn(c)
	}
	return nil
}

func (e *Engine) applyInterpGlobal(g globalRec) error {
	if g.mode == deltaTableDiff {
		t, ok := e.interp.Globals[g.name].(*TableVal)
		if !ok {
			return fmt.Errorf("bro: delta table diff for non-table global %q", g.name)
		}
		return applyTableDiff(t, g.body, e.interp)
	}
	sub := snapshot.NewRawDecoder(g.body)
	v := decodeVal(sub, e.interp, 0)
	if err := sub.Err(); err != nil {
		return err
	}
	// Function globals decode to nil when the declaration is gone; keep
	// the freshly initialized value in that case.
	if v != nil || !isFuncGlobal(e.interp.Globals[g.name]) {
		e.interp.Globals[g.name] = v
	}
	return nil
}

func (e *Engine) applyExecSection(which int, x execSection) error {
	if !x.present {
		return nil
	}
	globals := execOf(e, which)
	mgr := execTM(e, which)
	mgr.SetNow(timer.Time(x.now))
	for _, g := range x.globals {
		if g.idx < 0 || g.idx >= len(globals) {
			return fmt.Errorf("bro: delta references VM global %d of %d", g.idx, len(globals))
		}
		if g.mode == deltaJournal {
			if err := applyJournalOps(globals[g.idx], g.body, mgr); err != nil {
				return fmt.Errorf("bro: VM global %d: %w", g.idx, err)
			}
			continue
		}
		sub := snapshot.NewRawDecoder(g.body, snapshot.WithTimerMgr(mgr))
		v := sub.Value()
		if err := sub.Err(); err != nil {
			return err
		}
		globals[g.idx] = v
	}
	return nil
}

func isFuncGlobal(v Val) bool {
	_, ok := v.(*FuncVal)
	return ok
}

// --- connections -----------------------------------------------------------------

// inFlightParse reports whether the connection holds suspended BinPAC++
// fiber state, which has no serializable form.
func (c *conn) inFlightParse() bool {
	return c.origRope != nil || c.respRope != nil || c.origRun != nil || c.respRun != nil
}

// encodeConn writes one connection's complete analyzer state: flow key,
// identifiers, TCP flags, reassembly streams, and parser state. A dirty
// connection re-encodes whole, keeping a delta record's cost proportional
// to per-flow state.
func encodeConn(enc *snapshot.Encoder, c *conn) {
	encodeKey(enc, c.key)
	enc.String(c.uid)
	enc.I64(c.ctx)
	var flags byte
	if c.isTCP {
		flags |= cfTCP
	}
	if c.started {
		flags |= cfStarted
	}
	if c.origSYN {
		flags |= cfOrigSYN
	}
	if c.respSYN {
		flags |= cfRespSYN
	}
	if c.rec != nil {
		flags |= cfRec
	}
	if c.std != nil {
		flags |= cfStd
	}
	enc.U8(flags)
	if c.rec != nil {
		start, _ := c.rec.Get("start_time").(TimeVal)
		enc.I64(int64(start))
	}
	encodeStream(enc, &c.origStream)
	encodeStream(enc, &c.respStream)
	if c.std != nil {
		orig, resp, methods := c.std.SnapshotState()
		encodeHTTPDir(enc, orig)
		encodeHTTPDir(enc, resp)
		encodeStrings(enc, methods)
	}
	encodeStrings(enc, c.methods)
}

// connRecord is one decoded encodeConn record, before any analyzer is
// attached.
type connRecord struct {
	key                flow.Key
	uid                string
	ctx                int64
	flags              byte
	start              int64
	orig, resp         reassembly.StreamState
	origHTTP, respHTTP analyzers.HTTPDirState
	httpMethods        []string
	methods            []string
}

// readConn decodes one encodeConn record. Errors are left on dec.
func readConn(dec *snapshot.Decoder) connRecord {
	r := connRecord{key: decodeKey(dec), uid: dec.String(), ctx: dec.I64(), flags: dec.U8()}
	if r.flags&cfRec != 0 {
		r.start = dec.I64()
	}
	r.orig = decodeStream(dec)
	r.resp = decodeStream(dec)
	if r.flags&cfStd != 0 {
		r.origHTTP = decodeHTTPDir(dec)
		r.respHTTP = decodeHTTPDir(dec)
		r.httpMethods = decodeStrings(dec)
	}
	r.methods = decodeStrings(dec)
	return r
}

// restoreConn rebuilds a live connection from its record, attaching
// analyzers and reassembly budget from e. It does not register the
// connection: each caller decides its ctx and what it replaces.
func (e *Engine) restoreConn(r *connRecord) (*conn, error) {
	c := &conn{
		key:     r.key,
		uid:     r.uid,
		ctx:     r.ctx,
		isTCP:   r.flags&cfTCP != 0,
		started: r.flags&cfStarted != 0,
		origSYN: r.flags&cfOrigSYN != 0,
		respSYN: r.flags&cfRespSYN != 0,
		methods: r.methods,
	}
	if c.isTCP && e.reasm != nil {
		c.origStream.Budget = e.reasm
		c.respStream.Budget = e.reasm
	}
	c.origStream.RestoreState(r.orig)
	c.respStream.RestoreState(r.resp)
	if r.flags&cfRec != 0 {
		k := c.key
		c.rec = e.interp.MakeConn(c.uid, k.SrcAddr(), k.DstAddr(),
			PortVal{Num: k.SrcPort, Proto: k.Proto},
			PortVal{Num: k.DstPort, Proto: k.Proto}, r.start)
	}
	if c.isTCP {
		e.attachTCPAnalyzer(c)
	}
	if r.flags&cfStd != 0 {
		if c.std == nil {
			return nil, fmt.Errorf("bro: record has parser state for %s but no analyzer attached", r.uid)
		}
		c.std.RestoreState(r.origHTTP, r.respHTTP, r.httpMethods)
	}
	return c, nil
}

// addConn registers a restored connection under its canonical key and
// ctx.
func (e *Engine) addConn(c *conn) {
	ck, _ := c.key.Canonical()
	e.conns[ck] = c
	e.ctxs[c.ctx] = c
}

// --- leaf codecs ---------------------------------------------------------------

func encodeKey(enc *snapshot.Encoder, k flow.Key) {
	raw := k.Wire()
	enc.Bytes(raw[:])
}

func decodeKey(dec *snapshot.Decoder) flow.Key {
	raw := dec.Bytes()
	if dec.Err() != nil {
		return flow.Key{}
	}
	k, err := flow.KeyFromWire(raw)
	if err != nil {
		dec.Fail("bro: %v", err)
	}
	return k
}

func encodeStream(enc *snapshot.Encoder, s *reassembly.Stream) {
	st := s.SnapshotState()
	enc.Bool(st.Initialized)
	enc.U32(st.ISN)
	enc.U64(st.Next)
	enc.U64(st.FinRel)
	enc.Bool(st.FinSeen)
	enc.Bool(st.Closed)
	enc.U32(uint32(len(st.Pending)))
	for _, seg := range st.Pending {
		enc.U64(seg.Rel)
		enc.Bytes(seg.Data)
	}
}

func decodeStream(dec *snapshot.Decoder) reassembly.StreamState {
	var st reassembly.StreamState
	st.Initialized = dec.Bool()
	st.ISN = dec.U32()
	st.Next = dec.U64()
	st.FinRel = dec.U64()
	st.FinSeen = dec.Bool()
	st.Closed = dec.Bool()
	n := dec.Len(12)
	for i := 0; i < n && dec.Err() == nil; i++ {
		rel := dec.U64()
		data := dec.Bytes()
		st.Pending = append(st.Pending, reassembly.SegmentState{Rel: rel, Data: data})
	}
	return st
}

func encodeHTTPDir(enc *snapshot.Encoder, st analyzers.HTTPDirState) {
	enc.Bytes(st.Buf)
	enc.U8(byte(st.State))
	enc.I64(int64(st.Remain))
	enc.String(st.Ctype)
	enc.Bytes(st.Body)
	enc.Bool(st.HasBody)
	enc.Bool(st.IsHead)
	enc.I64(int64(st.Status))
}

func decodeHTTPDir(dec *snapshot.Decoder) analyzers.HTTPDirState {
	var st analyzers.HTTPDirState
	st.Buf = dec.Bytes()
	st.State = int(dec.U8())
	st.Remain = int(dec.I64())
	st.Ctype = dec.String()
	st.Body = dec.Bytes()
	st.HasBody = dec.Bool()
	st.IsHead = dec.Bool()
	st.Status = int(dec.I64())
	return st
}

// sortedKeys returns m's keys in ascending order, the order every record
// section is written in.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func encodeStrings(enc *snapshot.Encoder, ss []string) {
	enc.U32(uint32(len(ss)))
	for _, s := range ss {
		enc.String(s)
	}
}

func decodeStrings(dec *snapshot.Decoder) []string {
	n := dec.Len(4)
	var out []string
	for i := 0; i < n && dec.Err() == nil; i++ {
		out = append(out, dec.String())
	}
	return out
}

// --- interpreter Val codec -----------------------------------------------------

func encodeVal(enc *snapshot.Encoder, v Val, depth int) {
	if depth > valMaxDepth {
		enc.Fail("bro: script value nesting exceeds %d", valMaxDepth)
		return
	}
	switch x := v.(type) {
	case nil:
		enc.U8(valNil)
	case BoolVal:
		enc.U8(valBool)
		enc.Bool(bool(x))
	case CountVal:
		enc.U8(valCount)
		enc.U64(uint64(x))
	case IntVal:
		enc.U8(valInt)
		enc.I64(int64(x))
	case DoubleVal:
		enc.U8(valDouble)
		enc.U64(doubleBits(float64(x)))
	case StringVal:
		enc.U8(valString)
		enc.String(string(x))
	case AddrVal:
		enc.U8(valAddr)
		enc.Value(x.A)
	case SubnetVal:
		enc.U8(valSubnet)
		enc.Value(x.N)
	case PortVal:
		enc.U8(valPort)
		enc.U16(x.Num)
		enc.U8(x.Proto)
	case TimeVal:
		enc.U8(valTime)
		enc.I64(int64(x))
	case IntervalVal:
		enc.U8(valInterval)
		enc.I64(int64(x))
	case EnumVal:
		enc.U8(valEnum)
		enc.String(x.Name)
	case *RecordVal:
		enc.U8(valRecord)
		enc.String(x.T.Name)
		if len(x.T.Fields) > 0xFFFF {
			enc.Fail("bro: record %s has too many fields", x.T.Name)
			return
		}
		enc.U16(uint16(len(x.T.Fields)))
		for _, f := range x.T.Fields {
			enc.String(f)
		}
		for _, f := range x.F {
			encodeVal(enc, f, depth+1)
		}
	case *TableVal:
		enc.U8(valTable)
		enc.Bool(x.IsSet)
		enc.I64(x.ExpireInterval)
		enc.Bool(x.ExpireOnRead)
		enc.U32(uint32(x.Len()))
		for _, e := range x.order {
			if e.deleted {
				continue
			}
			if len(e.key) > 0xFFFF {
				enc.Fail("bro: table key too wide")
				return
			}
			enc.U16(uint16(len(e.key)))
			for _, k := range e.key {
				encodeVal(enc, k, depth+1)
			}
			encodeVal(enc, e.yield, depth+1)
			enc.I64(e.touched)
		}
	case *VectorVal:
		enc.U8(valVector)
		enc.U32(uint32(len(x.Elems)))
		for _, el := range x.Elems {
			encodeVal(enc, el, depth+1)
		}
	case *FuncVal:
		enc.U8(valFunc)
		enc.String(x.Name)
	default:
		enc.Fail("bro: cannot checkpoint script value of type %s", v.TypeName())
	}
}

func decodeVal(dec *snapshot.Decoder, ip *Interp, depth int) Val {
	if dec.Err() != nil {
		return nil
	}
	if depth > valMaxDepth {
		dec.Fail("bro: script value nesting exceeds %d", valMaxDepth)
		return nil
	}
	switch tag := dec.U8(); tag {
	case valNil:
		return nil
	case valBool:
		return BoolVal(dec.Bool())
	case valCount:
		return CountVal(dec.U64())
	case valInt:
		return IntVal(dec.I64())
	case valDouble:
		return DoubleVal(doubleFromBits(dec.U64()))
	case valString:
		return StringVal(dec.String())
	case valAddr:
		return AddrVal{A: dec.Value()}
	case valSubnet:
		return SubnetVal{N: dec.Value()}
	case valPort:
		num := dec.U16()
		return PortVal{Num: num, Proto: dec.U8()}
	case valTime:
		return TimeVal(dec.I64())
	case valInterval:
		return IntervalVal(dec.I64())
	case valEnum:
		return EnumVal{Name: dec.String()}
	case valRecord:
		name := dec.String()
		nf := int(dec.U16())
		if dec.Err() != nil || nf > dec.Remaining() {
			dec.Fail("bro: implausible record field count %d", nf)
			return nil
		}
		fields := make([]string, nf)
		for i := range fields {
			fields[i] = dec.String()
		}
		rt := ip.Records[name]
		if rt == nil || len(rt.Fields) != nf {
			rt = NewRecordType(name, fields...)
		}
		rec := NewRecord(rt)
		for i := 0; i < nf; i++ {
			rec.F[i] = decodeVal(dec, ip, depth+1)
		}
		return rec
	case valTable:
		isSet := dec.Bool()
		t := NewTable(isSet)
		t.ExpireInterval = dec.I64()
		t.ExpireOnRead = dec.Bool()
		n := dec.Len(11) // u16 key len + at least one tag + yield tag + i64
		for i := 0; i < n && dec.Err() == nil; i++ {
			if en := decodeEntry(dec, ip, depth+1); en != nil {
				t.restoreEntry(en)
			}
		}
		return t
	case valVector:
		n := dec.Len(1)
		vec := &VectorVal{}
		for i := 0; i < n && dec.Err() == nil; i++ {
			vec.Elems = append(vec.Elems, decodeVal(dec, ip, depth+1))
		}
		return vec
	case valFunc:
		name := dec.String()
		if fd, ok := ip.Funcs[name]; ok {
			return &FuncVal{Name: name, Decl: fd}
		}
		return nil
	default:
		dec.Fail("bro: unknown script value tag %d", tag)
		return nil
	}
}

// decodeEntry reads one table entry — key width, keys, yield, touch time
// — the layout whole tables and entry blobs (tableEntryBlobs) share. It
// returns nil with the failure left on dec for a malformed entry, which
// includes a nil key (no canonical key string exists for one).
func decodeEntry(dec *snapshot.Decoder, ip *Interp, depth int) *tableEntry {
	nk := int(dec.U16())
	if dec.Err() != nil || nk > dec.Remaining() {
		dec.Fail("bro: implausible table key width %d", nk)
		return nil
	}
	key := make([]Val, nk)
	for j := range key {
		if key[j] = decodeVal(dec, ip, depth); key[j] == nil {
			dec.Fail("bro: nil table key")
			return nil
		}
	}
	yield := decodeVal(dec, ip, depth)
	touched := dec.I64()
	if dec.Err() != nil {
		return nil
	}
	return &tableEntry{key: key, keyStr: KeyString(key), yield: yield, touched: touched}
}

func doubleBits(f float64) uint64     { return math.Float64bits(f) }
func doubleFromBits(b uint64) float64 { return math.Float64frombits(b) }
