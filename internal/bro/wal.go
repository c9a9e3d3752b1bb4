// The engine's delta-state API: incremental checkpoints via a write-ahead
// log. A full checkpoint re-encodes every open connection, every global,
// and every log line — O(all state) per interval. The API here instead
// tracks *which* state changed since the last flush (dirty marks placed at
// the engine's mutation points, plus container mutation journals) and
// AppendDelta emits one O(changed-state) state record — the same layout a
// checkpoint carries (checkpoint.go), written against the previous flush
// instead of the empty engine. ApplyDelta replays it through the same
// reader RestoreEngine uses.
//
// Checkpoint cost model under WAL mode:
//
//	checkpoint = periodic full snapshot (Checkpoint) + wal.Log of deltas
//	restore    = RestoreEngine(snapshot) + replay of the delta records
//
// Granularities, coarsest to finest:
//   - dirty connections re-encode whole (encodeConn) — per-flow, not
//     per-engine, cost;
//   - interpreter table globals diff per entry (upserts + deletes against
//     the cached base), other globals diff whole-value blobs;
//   - VM container globals with scalar-only contents journal individual
//     insert/remove/touch ops (container.JournalFn); any non-scalar key or
//     value, or a policy change, trips the gate and the global falls back
//     to whole-blob diffing — the conservative answer to aliasing, since a
//     heap value stored in a container can be mutated later without any
//     container operation the journal could observe.
//
// The same serializability limits as Checkpoint apply: a connection with
// in-flight BinPAC++ fiber state cannot be encoded (AppendDelta errors and
// the caller falls back to re-basing), and unserializable globals degrade
// to their base-snapshot value.

package bro

import (
	"bytes"
	"fmt"

	"hilti/internal/rt/container"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
	"hilti/internal/rt/wal"
)

// DeltaRecord is the WAL record kind under which engine-level harnesses
// append AppendDelta payloads (the pipeline wraps deltas in its own
// per-packet records instead).
const DeltaRecord = 1

// Global-emission modes inside a delta record.
const (
	deltaWhole     = 0 // full re-encoded value
	deltaTableDiff = 1 // per-entry upserts/deletes against the base
	deltaJournal   = 2 // container journal ops (VM globals only)
)

// deltaState is the engine's dirty-tracking state between WAL flushes plus
// the caches describing what the last flush (or base snapshot) contained.
type deltaState struct {
	dirtyConns  map[int64]*conn
	closedCtxs  map[int64]bool
	quarTouched map[uint64]bool
	dirtyInterp bool
	dirtyExec   [2]bool

	interp  map[string]*interpCache
	exec    [2][]execCache
	flushed map[string]int // stream name -> lines already persisted
}

// interpCache is the per-interpreter-global base the next diff runs against.
type interpCache struct {
	obj     any               // *TableVal identity when entry-diffed
	entries map[string][]byte // keyStr -> encoded entry (table mode)
	order   []string          // live keyStr order at last flush (table mode)
	blob    []byte            // whole-value encoding (non-table mode)
	ok      bool              // whole-value encoding succeeded
}

// execCache is the per-VM-global base. Container globals with scalar-only
// contents run in journal mode: mutations append ops and an unchanged
// container costs nothing at flush time. Everything else diffs blobs.
type execCache struct {
	obj       any // journaled container identity (nil: plain blob mode)
	journaled bool
	dirty     bool // any journal activity since last flush
	opsBuf    *bytes.Buffer
	opsEnc    *snapshot.Encoder
	nops      int
	blob      []byte
	ok        bool
}

func journalableScalar(v values.Value) bool {
	// Kinds at or below Bitset keep their payload in the two scalar words
	// (strings are immutable), so a journaled copy can never be mutated
	// behind the journal's back through an alias.
	return v.K <= values.KindBitset
}

// --- dirty marks (called from engine.go; no-ops when WAL is off) ---------------

func (e *Engine) markConnDirty(c *conn) {
	if e.delta != nil {
		e.delta.dirtyConns[c.ctx] = c
	}
}

func (e *Engine) markConnClosed(c *conn) {
	if e.delta != nil {
		delete(e.delta.dirtyConns, c.ctx)
		e.delta.closedCtxs[c.ctx] = true
	}
}

func (e *Engine) markQuar(vid uint64) {
	if e.delta != nil {
		e.delta.quarTouched[vid] = true
	}
}

// --- base management -----------------------------------------------------------

// ResetDeltaBase (re)initializes delta tracking so that subsequent
// AppendDelta calls describe changes relative to the engine's *current*
// state. Call it immediately after writing a full snapshot (Checkpoint);
// the snapshot plus the deltas then reconstruct the engine exactly.
func (e *Engine) ResetDeltaBase() error {
	e.detachJournals()
	ds := &deltaState{
		dirtyConns:  map[int64]*conn{},
		closedCtxs:  map[int64]bool{},
		quarTouched: map[uint64]bool{},
		interp:      map[string]*interpCache{},
		flushed:     map[string]int{},
	}
	for name, v := range e.interp.Globals {
		ds.interp[name] = newInterpCache(v)
	}
	ds.exec[0] = ds.baseExec(e, 0)
	ds.exec[1] = ds.baseExec(e, 1)
	for name, st := range e.Logs.streams {
		ds.flushed[name] = len(st.lines)
	}
	e.delta = ds
	return nil
}

// detachJournals removes this engine's container journals (installed by a
// previous ResetDeltaBase) so orphaned callbacks stop accumulating ops.
func (e *Engine) detachJournals() {
	if e.delta == nil {
		return
	}
	for w := range e.delta.exec {
		for i := range e.delta.exec[w] {
			setContainerJournal(e.delta.exec[w][i].obj, nil)
		}
	}
}

func setContainerJournal(obj any, fn container.JournalFn) {
	switch o := obj.(type) {
	case *container.Map:
		o.SetJournal(fn)
	case *container.Set:
		o.SetJournal(fn)
	}
}

func execOf(e *Engine, which int) []values.Value {
	ex := e.sexec
	if which == 1 {
		ex = e.pexec
	}
	if ex == nil {
		return nil
	}
	return ex.Globals
}

func execTM(e *Engine, which int) *timer.Mgr {
	if which == 1 {
		return e.pexec.GlobalTM
	}
	return e.sexec.GlobalTM
}

func (ds *deltaState) baseExec(e *Engine, which int) []execCache {
	globals := execOf(e, which)
	if globals == nil {
		return nil
	}
	cache := make([]execCache, len(globals))
	for i := range globals {
		gc := &cache[i]
		switch o := globals[i].O.(type) {
		case *container.Map, *container.Set:
			gc.obj = o
			gc.journaled = true
			setContainerJournal(o, ds.execJournal(which, i, &cache))
		default:
			gc.blob, gc.ok = encodeExecGlobal(globals[i])
		}
	}
	return cache
}

// execJournal builds the journal callback for VM global idx. The cache
// slice is passed by pointer-to-slice so the closure stays valid even
// though it is built before the slice is stored in ds.exec.
func (ds *deltaState) execJournal(which, idx int, cache *[]execCache) container.JournalFn {
	return func(op container.JournalOp, key, val values.Value, lastUse timer.Time) {
		gc := &(*cache)[idx]
		gc.dirty = true
		if !gc.journaled {
			return
		}
		if op == container.JournalReset || !journalableScalar(key) || !journalableScalar(val) {
			// Gate tripped: this global now diffs whole blobs. Drop any ops
			// already buffered — the next flush re-encodes from scratch.
			gc.journaled = false
			gc.nops = 0
			if gc.opsBuf != nil {
				gc.opsBuf.Reset()
			}
			return
		}
		if gc.opsBuf == nil {
			gc.opsBuf = &bytes.Buffer{}
			gc.opsEnc = snapshot.NewRawEncoder(gc.opsBuf)
		}
		gc.opsEnc.U8(byte(op))
		gc.opsEnc.Value(key)
		gc.opsEnc.Value(val)
		gc.opsEnc.I64(int64(lastUse))
		gc.nops++
	}
}

func encodeExecGlobal(v values.Value) ([]byte, bool) {
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	enc.Value(v)
	if enc.Err() != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

func newInterpCache(v Val) *interpCache {
	c := &interpCache{}
	if t, ok := v.(*TableVal); ok {
		c.obj = t
		c.entries, c.order, c.ok = tableEntryBlobs(t, "")
		if c.ok {
			return c
		}
		c.obj = nil // unencodable entries: fall through to whole-blob mode
	}
	c.blob, c.ok = encodeInterpGlobal(v)
	return c
}

func encodeInterpGlobal(v Val) ([]byte, bool) {
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	encodeVal(enc, v, 0)
	if enc.Err() != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// tableEntryBlobs encodes t's live entries — all of them, or only flow
// uid's when uid is set (see entryMatchesUID) — keyed by canonical key
// string, in insertion order. ok is false when an entry cannot be
// encoded. An entry blob holds the key width, the keys, the yield, and
// the touch time; table diffs and flow extracts both carry entries so.
func tableEntryBlobs(t *TableVal, uid string) (entries map[string][]byte, order []string, ok bool) {
	entries = make(map[string][]byte, t.Len())
	order = make([]string, 0, t.Len())
	for _, en := range t.order {
		if en.deleted || (uid != "" && !entryMatchesUID(en, uid)) {
			continue
		}
		var buf bytes.Buffer
		enc := snapshot.NewRawEncoder(&buf)
		enc.U16(uint16(len(en.key)))
		for _, k := range en.key {
			encodeVal(enc, k, 1)
		}
		encodeVal(enc, en.yield, 1)
		enc.I64(en.touched)
		if enc.Err() != nil {
			return entries, order, false
		}
		entries[en.keyStr] = buf.Bytes()
		order = append(order, en.keyStr)
	}
	return entries, order, true
}

// --- delta encoding ------------------------------------------------------------

// AppendDelta serializes everything that changed since the last flush (or
// ResetDeltaBase) into one self-contained state record, advancing the
// base so the next call describes only subsequent changes. The caller
// appends the returned bytes to a wal.Log. An error means the delta cannot
// express the current state (in-flight binpac parse); the caller should
// re-base with a full snapshot once possible.
func (e *Engine) AppendDelta() ([]byte, error) {
	if e.delta == nil {
		return nil, fmt.Errorf("bro: AppendDelta without ResetDeltaBase")
	}
	var buf bytes.Buffer
	if err := e.writeRecord(snapshot.NewRawEncoder(&buf), false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// interpDeltas returns the changed interpreter globals: table globals as
// per-entry diffs, everything else as whole-value blobs when the bytes
// differ from the cached base.
func (ds *deltaState) interpDeltas(e *Engine) []globalRec {
	if !ds.dirtyInterp {
		return nil
	}
	ds.dirtyInterp = false
	var out []globalRec
	for _, name := range sortedKeys(ds.interp) {
		c := ds.interp[name]
		v := e.interp.Globals[name]
		if t, ok := v.(*TableVal); ok && c.obj == any(t) {
			if body, changed := diffTable(c, t); changed {
				out = append(out, globalRec{name: name, mode: deltaTableDiff, body: body})
			}
			continue
		}
		blob, okE := encodeInterpGlobal(v)
		if !okE {
			// Unserializable now: degrade exactly as Checkpoint does by
			// leaving the restored side at its base value.
			continue
		}
		if c.ok && bytes.Equal(blob, c.blob) {
			continue
		}
		*c = interpCache{blob: blob, ok: true}
		if t, ok := v.(*TableVal); ok {
			// Rebuild entry cache so later flushes diff incrementally.
			if entries, order, tok := tableEntryBlobs(t, ""); tok {
				c.obj, c.entries, c.order = t, entries, order
			}
		}
		out = append(out, globalRec{name: name, mode: deltaWhole, body: blob})
	}
	return out
}

// diffTable computes a per-entry diff of t against the cached base,
// updating the cache in place. changed is false when nothing changed, or
// when an entry cannot be encoded (the global then degrades to its base
// value). A reorder — a key deleted and reinserted — cannot be expressed
// as in-place upserts, so it is emitted as a delete of every base entry
// followed by the full entry set as upserts, which keeps the diff
// self-contained.
func diffTable(c *interpCache, t *TableVal) (body []byte, changed bool) {
	entries, order, ok := tableEntryBlobs(t, "")
	if !ok {
		return nil, false
	}
	var dels []string
	var ups [][]byte
	for _, ks := range c.order {
		if _, live := entries[ks]; !live {
			dels = append(dels, ks)
		}
	}
	for _, ks := range order {
		old, had := c.entries[ks]
		if !had || !bytes.Equal(old, entries[ks]) {
			ups = append(ups, entries[ks])
		}
	}
	// Order consistency: surviving base entries in base order, new keys
	// appended.
	expected := make([]string, 0, len(order))
	for _, ks := range c.order {
		if _, live := entries[ks]; live {
			expected = append(expected, ks)
		}
	}
	for _, ks := range order {
		if _, had := c.entries[ks]; !had {
			expected = append(expected, ks)
		}
	}
	reordered := len(expected) != len(order)
	for i := 0; !reordered && i < len(order); i++ {
		reordered = expected[i] != order[i]
	}
	if reordered {
		dels = append([]string(nil), c.order...)
		ups = ups[:0]
		for _, ks := range order {
			ups = append(ups, entries[ks])
		}
	}
	if len(dels) == 0 && len(ups) == 0 {
		return nil, false
	}
	c.entries, c.order = entries, order
	return encodeTableDiff(dels, ups), true
}

// encodeTableDiff writes a table diff body: the canonical key strings of
// deleted entries, then the upserted entry blobs (tableEntryBlobs layout).
// Delta records and per-flow filtered records share it.
func encodeTableDiff(dels []string, ups [][]byte) []byte {
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	encodeStrings(enc, dels)
	enc.U32(uint32(len(ups)))
	for _, eb := range ups {
		enc.Bytes(eb)
	}
	return buf.Bytes()
}

// readTableDiff decodes an encodeTableDiff body.
func readTableDiff(body []byte) (dels []string, ups [][]byte, err error) {
	dec := snapshot.NewRawDecoder(body)
	dels = decodeStrings(dec)
	nup := dec.Len(4)
	for i := 0; i < nup && dec.Err() == nil; i++ {
		ups = append(ups, dec.Bytes())
	}
	return dels, ups, dec.Err()
}

// execDeltas returns the changed VM globals of executor `which` (0 =
// scripts, 1 = parsers): journal ops for clean container globals, blob
// diffs otherwise.
func (ds *deltaState) execDeltas(globals []values.Value, which int) []globalRec {
	var out []globalRec
	for i := range ds.exec[which] {
		gc := &ds.exec[which][i]
		if gc.obj != nil && globals[i].O != gc.obj {
			// Global rebound to a different object: the journal watches the
			// old one. Detach and fall back to blob mode permanently.
			setContainerJournal(gc.obj, nil)
			gc.obj, gc.journaled, gc.dirty = nil, false, true
		}
		if gc.journaled {
			if gc.nops > 0 {
				var buf bytes.Buffer
				sub := snapshot.NewRawEncoder(&buf)
				sub.U32(uint32(gc.nops))
				sub.Raw(gc.opsBuf.Bytes())
				out = append(out, globalRec{idx: i, mode: deltaJournal, body: buf.Bytes()})
				gc.opsBuf.Reset()
				gc.nops = 0
			}
			gc.dirty = false
			continue
		}
		// Blob mode. Container globals have a precise dirty signal (the
		// journal still marks even after falling back); plain globals only
		// have the executor-wide flag.
		if gc.obj != nil {
			if !gc.dirty {
				continue
			}
		} else if !ds.dirtyExec[which] {
			continue
		}
		blob, ok := encodeExecGlobal(globals[i])
		gc.dirty = false
		if !ok {
			continue // degrade: restored side keeps its base value
		}
		if gc.ok && bytes.Equal(blob, gc.blob) {
			continue
		}
		gc.blob, gc.ok = blob, true
		out = append(out, globalRec{idx: i, mode: deltaWhole, body: blob})
	}
	ds.dirtyExec[which] = false
	return out
}

// --- delta application ---------------------------------------------------------

// ApplyDelta replays one AppendDelta record onto the engine — the restore
// half of incremental checkpointing. The engine must be at the state the
// record was diffed against (the base snapshot plus all earlier records).
// ApplyDelta does not maintain delta tracking; a caller that resumes WAL
// mode afterwards re-bases with Checkpoint + ResetDeltaBase.
func (e *Engine) ApplyDelta(data []byte) error {
	r, err := readRecord(snapshot.NewRawDecoder(data), data)
	if err != nil {
		return err
	}
	return e.applyRecord(r)
}

// dropConnState removes a connection during delta replay, releasing its
// reassembly budget, without events or counter updates (counters arrive in
// the record's meta section).
func (e *Engine) dropConnState(c *conn) {
	c.origStream.Discard()
	c.respStream.Discard()
	ck, _ := c.key.Canonical()
	delete(e.conns, ck)
	delete(e.ctxs, c.ctx)
}

// applyTableDiff applies an encodeTableDiff body to t.
func applyTableDiff(t *TableVal, body []byte, ip *Interp) error {
	dels, ups, err := readTableDiff(body)
	if err != nil {
		return err
	}
	for _, ks := range dels {
		if en, ok := t.entries[ks]; ok {
			en.deleted = true
			delete(t.entries, ks)
		}
	}
	for _, eb := range ups {
		if err := upsertEntry(t, eb, ip); err != nil {
			return err
		}
	}
	return nil
}

// upsertEntry decodes one entry blob (tableEntryBlobs layout) and
// upserts it into t, preserving the recorded touch time so &create_expire
// / &read_expire fire exactly as they would have without the checkpoint
// or migration.
func upsertEntry(t *TableVal, blob []byte, ip *Interp) error {
	ed := snapshot.NewRawDecoder(blob)
	en := decodeEntry(ed, ip, 1)
	if en == nil {
		return ed.Err()
	}
	if old, ok := t.entries[en.keyStr]; ok {
		old.key, old.yield, old.touched = en.key, en.yield, en.touched
		return nil
	}
	t.entries[en.keyStr] = en
	t.order = append(t.order, en)
	return nil
}

func applyJournalOps(v values.Value, body []byte, mgr *timer.Mgr) error {
	sub := snapshot.NewRawDecoder(body, snapshot.WithTimerMgr(mgr))
	n := sub.Len(1)
	for i := 0; i < n && sub.Err() == nil; i++ {
		op := container.JournalOp(sub.U8())
		key := sub.Value()
		val := sub.Value()
		lastUse := timer.Time(sub.I64())
		if sub.Err() != nil {
			break
		}
		switch o := v.O.(type) {
		case *container.Map:
			switch op {
			case container.JournalInsert:
				o.InsertRestored(key, val, lastUse)
			case container.JournalRemove:
				o.Remove(key)
			case container.JournalTouch:
				o.TouchRestored(key, lastUse)
			default:
				return fmt.Errorf("unknown journal op %d", op)
			}
		case *container.Set:
			switch op {
			case container.JournalInsert:
				o.InsertRestored(key, lastUse)
			case container.JournalRemove:
				o.Remove(key)
			case container.JournalTouch:
				o.TouchRestored(key, lastUse)
			default:
				return fmt.Errorf("unknown journal op %d", op)
			}
		default:
			return fmt.Errorf("journal ops target non-container value %s", v.K)
		}
	}
	return sub.Err()
}

// RestoreEngineWAL rebuilds an engine from a full snapshot plus the WAL
// segments written since, replaying each delta record in order. Damage in
// the final segment is treated as a crash-truncated tail (the restore
// lands on the last intact record); damage in an earlier segment is an
// error. The restored engine is not yet in WAL mode — call Checkpoint +
// ResetDeltaBase to resume appending.
func RestoreEngineWAL(cfg Config, snap []byte, segs [][]byte) (*Engine, error) {
	e, err := RestoreEngine(cfg, bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	if _, err := wal.ReplayTolerant(segs, func(kind byte, payload []byte) error {
		if kind != DeltaRecord {
			return fmt.Errorf("bro: unexpected WAL record kind %d", kind)
		}
		return e.ApplyDelta(payload)
	}); err != nil {
		return nil, err
	}
	return e, nil
}
