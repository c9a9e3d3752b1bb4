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
// Flow blobs reuse the state-record pieces of checkpoint.go and wal.go:
// the connection in encodeConn's layout, read by readConn, and script
// entries in tableEntryBlobs' layout.
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
// global.
func (e *Engine) dropFlowScriptState(uid string) {
	for _, v := range e.interp.Globals {
		t, ok := v.(*TableVal)
		if !ok {
			continue
		}
		for _, en := range t.order {
			if !en.deleted && entryMatchesUID(en, uid) {
				t.remove(en)
			}
		}
	}
}
