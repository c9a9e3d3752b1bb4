// Per-flow state extraction for live migration: the engine side of the
// elastic-cluster handoff (internal/rt/migrate + internal/pkt/pipeline).
// A flow's analyzer state is the connection record (encodeConn) *plus*
// the script-visible state the interpreter keeps for it — HTTP pipelines
// a `table[string] of vector` keyed by the connection uid, DNS a
// `table[string, count]` whose first index is the uid. Migrating the
// connection without those entries would split a session's script state
// across instances and diverge its logs, so ExtractFlow ships both.
//
// The per-flow predicate is structural: a table entry belongs to a flow
// when its first index is a string equal to the connection's uid. The uid
// is derived deterministically from the canonical 5-tuple and the flow's
// start time (flow.UID), so it names the same flow on every instance.
//
// Flow blobs and filtered delta records reuse the state-record pieces of
// checkpoint.go and wal.go: connections in encodeConn's layout, read by
// readConn; script entries in tableEntryBlobs' layout; and table changes
// as table diffs. FlowDeltaFilter reads each WAL record through
// readRecord, the reader RestoreEngine and ApplyDelta use.
//
// Scope: per-flow extraction supports the interpreter script backend
// only. Compiled scripts (ScriptExec "hilti") keep their state in VM
// globals that this code cannot attribute to individual flows; ExtractFlow
// refuses rather than migrating a flow while silently leaving half its
// state behind. All methods run on the engine's owning worker goroutine,
// like every other Engine entry point.
package bro

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/snapshot"
)

// MigratableFlows enumerates every open connection's canonical flow key,
// ordered by connection age (ctx ascending) for determinism. Together
// with ExtractFlow/InjectFlow/ForgetFlow/HasFlow this implements the
// pipeline's MigratableHandler contract.
func (e *Engine) MigratableFlows() []flow.Key {
	ctxs := sortedKeys(e.ctxs)
	out := make([]flow.Key, len(ctxs))
	for i, ctx := range ctxs {
		out[i] = e.ctxs[ctx].key
	}
	return out
}

// ExtractFlow serializes one flow's complete analyzer state — connection
// blob plus the uid-keyed script table entries — without removing
// anything: the source keeps ownership until the handoff commits. A
// connection holding suspended BinPAC++ fiber state is not serializable
// (same limit as Checkpoint); the caller skips or aborts that flow's
// migration and retries after the parse completes.
func (e *Engine) ExtractFlow(key flow.Key) ([]byte, error) {
	if e.sexec != nil {
		return nil, errors.New("bro: per-flow migration requires the interpreter script backend")
	}
	ck, _ := key.Canonical()
	c, ok := e.conns[ck]
	if !ok {
		return nil, fmt.Errorf("bro: no connection for migrating flow")
	}
	if c.inFlightParse() {
		return nil, fmt.Errorf("bro: connection %s holds in-flight parse state", c.uid)
	}
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	encodeConn(enc, c)
	entries := e.flowScriptEntries(c.uid)
	enc.U32(uint32(len(entries)))
	for _, fe := range entries {
		enc.String(fe.global)
		enc.Bytes(fe.blob)
	}
	if err := enc.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// InjectFlow installs a shipped flow. The connection gets a fresh local
// ctx (ctx is instance-local; the uid is the cross-instance identity),
// its script entries land in the target's globals with their expiry
// clocks (`touched`) preserved, and the whole install is counter-neutral:
// the flow was opened on its first instance and closes on its last. A
// flow already present is a double-ownership violation and fails the
// install.
func (e *Engine) InjectFlow(blob []byte) (flow.Key, error) {
	if e.sexec != nil {
		return flow.Key{}, errors.New("bro: per-flow migration requires the interpreter script backend")
	}
	dec := snapshot.NewRawDecoder(blob)
	r := readConn(dec)
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	c, err := e.restoreConn(&r)
	if err != nil {
		return flow.Key{}, err
	}
	ck, _ := c.key.Canonical()
	if old, ok := e.conns[ck]; ok {
		return flow.Key{}, fmt.Errorf("bro: flow %s already present (double ownership)", old.uid)
	}
	c.ctx = e.nextCtx
	e.nextCtx++
	e.addConn(c)
	n := dec.Len(5)
	for i := 0; i < n && dec.Err() == nil; i++ {
		name := dec.String()
		eb := dec.Bytes()
		if dec.Err() != nil {
			break
		}
		t, ok := e.interp.Globals[name].(*TableVal)
		if !ok {
			return flow.Key{}, fmt.Errorf("bro: migrated entry for non-table global %q", name)
		}
		if err := upsertEntry(t, eb, e.interp); err != nil {
			return flow.Key{}, err
		}
	}
	if err := dec.Err(); err != nil {
		return flow.Key{}, err
	}
	e.markConnDirty(c)
	if e.delta != nil {
		e.delta.dirtyInterp = true
	}
	return ck, nil
}

// ForgetFlow releases a flow after a committed handoff: connection state
// and uid-keyed script entries go, with no events, no log lines, and no
// counter movement — the flow now lives elsewhere and will close there.
func (e *Engine) ForgetFlow(key flow.Key) bool {
	ck, _ := key.Canonical()
	c, ok := e.conns[ck]
	if !ok {
		return false
	}
	e.dropConnState(c)
	e.dropFlowScriptState(c.uid)
	e.markConnClosed(c)
	if e.delta != nil {
		e.delta.dirtyInterp = true
	}
	return true
}

// HasFlow reports whether the engine holds a connection for the flow.
func (e *Engine) HasFlow(key flow.Key) bool {
	ck, _ := key.Canonical()
	_, ok := e.conns[ck]
	return ok
}

// flowEntry is one uid-keyed script table entry, encoded in the
// tableEntryBlobs layout.
type flowEntry struct {
	global string
	blob   []byte
}

func entryMatchesUID(en *tableEntry, uid string) bool {
	if len(en.key) == 0 {
		return false
	}
	s, ok := en.key[0].(StringVal)
	return ok && string(s) == uid
}

// flowScriptEntries collects the flow's entries across all interpreter
// table globals, deterministically (globals sorted by name, entries in
// table insertion order). A table holding an unencodable entry for the
// flow contributes nothing: its entries degrade like an unserializable
// global does in a checkpoint.
func (e *Engine) flowScriptEntries(uid string) []flowEntry {
	var out []flowEntry
	for _, name := range sortedKeys(e.interp.Globals) {
		t, ok := e.interp.Globals[name].(*TableVal)
		if !ok {
			continue
		}
		entries, order, ok := tableEntryBlobs(t, uid)
		if !ok {
			continue
		}
		for _, ks := range order {
			out = append(out, flowEntry{global: name, blob: entries[ks]})
		}
	}
	return out
}

// dropFlowScriptState deletes every uid-keyed entry from every table
// global, returning whether anything was removed.
func (e *Engine) dropFlowScriptState(uid string) bool {
	changed := false
	for _, v := range e.interp.Globals {
		t, ok := v.(*TableVal)
		if !ok {
			continue
		}
		for _, en := range t.order {
			if !en.deleted && entryMatchesUID(en, uid) {
				en.deleted = true
				delete(t.entries, en.keyStr)
				changed = true
			}
		}
	}
	return changed
}

// --- per-flow delta filtering --------------------------------------------------

// ErrUnfilterable reports a delta record whose per-flow slice cannot be
// isolated — a table global was rewritten whole (initial emission or an
// order-changing mutation), so entry-level attribution is lost. The
// caller falls back to shipping a fresh full extract instead of the tail.
var ErrUnfilterable = errors.New("bro: delta record not filterable per-flow")

// FlowDeltaFilter projects engine delta records (AppendDelta payloads)
// down to one flow: uid-keyed table-diff entries, the flow's dirty
// connection re-encodes, and its close tombstone. Everything engine-global
// — counters, clocks, log tails, VM globals, other flows — is dropped, so
// applying the result on the target moves exactly one flow's state and
// nothing else. The filter is stateful: connection records carry the
// instance-local ctx, so the filter learns the flow's ctx ids from the
// seeded pre-copy blob and from dirty records in the stream, and uses
// them to recognize the close tombstone (which is a bare ctx).
type FlowDeltaFilter struct {
	uid  string
	ctxs map[int64]bool
}

// NewFlowDeltaFilter creates a filter for the flow identified by uid.
func NewFlowDeltaFilter(uid string) *FlowDeltaFilter {
	return &FlowDeltaFilter{uid: uid, ctxs: map[int64]bool{}}
}

// SeedConnBlob registers the flow's source-side ctx from an ExtractFlow
// blob (the pre-copy state shipped when the handoff session opened).
func (f *FlowDeltaFilter) SeedConnBlob(blob []byte) error {
	dec := snapshot.NewRawDecoder(blob)
	r := readConn(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	if r.uid != f.uid {
		return fmt.Errorf("bro: seeded blob is flow %s, filter is %s", r.uid, f.uid)
	}
	f.ctxs[r.ctx] = true
	return nil
}

// uidKeyMatch reports whether a canonical table key string's first
// component is the string uid.
func (f *FlowDeltaFilter) uidKeyMatch(ks string) bool {
	pfx := "string\x00" + f.uid
	return ks == pfx || strings.HasPrefix(ks, pfx+"\x01")
}

// Filter projects one AppendDelta record, read through readRecord. It
// returns nil when the record carries nothing for the flow, and
// ErrUnfilterable when attribution is impossible (whole-table rewrite).
// The projection is the flow's uid, its table diffs (global name plus an
// encodeTableDiff body), its close tombstone, and its dirty connection
// record, copied verbatim.
func (f *FlowDeltaFilter) Filter(record []byte) ([]byte, error) {
	r, err := readRecord(snapshot.NewRawDecoder(record), record)
	if err != nil {
		return nil, err
	}
	var tables []globalRec
	for _, g := range r.interp {
		if g.mode == deltaWhole {
			// A whole-value rewrite of a table global loses entry-level
			// attribution; a non-table global is engine-wide by definition.
			if len(g.body) > 0 && g.body[0] == valTable {
				return nil, ErrUnfilterable
			}
			continue
		}
		dels, ups, err := readTableDiff(g.body)
		if err != nil {
			return nil, err
		}
		var flowDels []string
		for _, ks := range dels {
			if f.uidKeyMatch(ks) {
				flowDels = append(flowDels, ks)
			}
		}
		var flowUps [][]byte
		for _, eb := range ups {
			if uid, ok := entryBlobUID(eb); ok && uid == f.uid {
				flowUps = append(flowUps, eb)
			}
		}
		if len(flowDels) > 0 || len(flowUps) > 0 {
			tables = append(tables, globalRec{name: g.name, body: encodeTableDiff(flowDels, flowUps)})
		}
	}
	// Close tombstones are bare ctx ids; ours are the ones we have learned.
	closed := false
	for _, ctx := range r.closed {
		closed = closed || f.ctxs[ctx]
	}
	var conn []byte
	for _, c := range r.conns {
		if c.uid == f.uid {
			f.ctxs[c.ctx] = true
			conn = c.raw
		}
	}
	if len(tables) == 0 && !closed && conn == nil {
		return nil, nil
	}

	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	enc.String(f.uid)
	enc.U32(uint32(len(tables)))
	for _, g := range tables {
		enc.String(g.name)
		enc.Bytes(g.body)
	}
	enc.Bool(closed)
	enc.Bool(conn != nil)
	enc.Raw(conn)
	if err := enc.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// entryBlobUID peeks an entry blob's first key: (uid, true) when it is a
// string, without decoding the rest of the entry.
func entryBlobUID(blob []byte) (string, bool) {
	dec := snapshot.NewRawDecoder(blob)
	if nk := dec.U16(); dec.Err() != nil || nk == 0 {
		return "", false
	}
	if tag := dec.U8(); dec.Err() != nil || tag != valString {
		return "", false
	}
	s := dec.String()
	return s, dec.Err() == nil
}

// FlowBlobUID reads the connection uid out of an ExtractFlow blob; the
// cluster uses it to key the delta filter it builds for each pre-copied
// flow.
func FlowBlobUID(blob []byte) (string, error) {
	dec := snapshot.NewRawDecoder(blob)
	r := readConn(dec)
	return r.uid, dec.Err()
}

// ApplyFlowDelta replays one filtered record onto this engine, moving
// exactly the named flow: table diffs apply by canonical key, a dirty
// connection re-encode replaces the flow's connection (keeping the
// target-local ctx stable), and the close tombstone drops it. Counters,
// clocks, and logs never move — the record does not carry them. The
// first result reports whether the record closed the flow, so the caller
// can keep its net-live accounting exact.
func (e *Engine) ApplyFlowDelta(data []byte) (bool, error) {
	if e.sexec != nil {
		return false, errors.New("bro: per-flow migration requires the interpreter script backend")
	}
	dec := snapshot.NewRawDecoder(data)
	uid := dec.String()
	nt := dec.Len(9)
	for i := 0; i < nt && dec.Err() == nil; i++ {
		name := dec.String()
		body := dec.Bytes()
		if dec.Err() != nil {
			break
		}
		t, ok := e.interp.Globals[name].(*TableVal)
		if !ok {
			return false, fmt.Errorf("bro: flow delta for non-table global %q", name)
		}
		if err := applyTableDiff(t, body, e.interp); err != nil {
			return false, err
		}
	}
	closed := dec.Bool()
	hasConn := dec.Bool()
	var r connRecord
	if hasConn {
		r = readConn(dec)
	}
	if err := dec.Err(); err != nil {
		return false, err
	}
	if hasConn {
		c, err := e.restoreConn(&r)
		if err != nil {
			return false, err
		}
		ck, _ := c.key.Canonical()
		if old, ok := e.conns[ck]; ok {
			c.ctx = old.ctx // keep the target-local identity stable
			e.dropConnState(old)
		} else {
			c.ctx = e.nextCtx
			e.nextCtx++
		}
		e.addConn(c)
		e.markConnDirty(c)
	}
	dropped := false
	if closed {
		for _, c := range e.conns {
			if c.uid == uid {
				e.dropConnState(c)
				e.markConnClosed(c)
				dropped = true
				break
			}
		}
		e.dropFlowScriptState(uid)
	}
	if e.delta != nil && (nt > 0 || closed) {
		e.delta.dirtyInterp = true
	}
	return dropped, nil
}
