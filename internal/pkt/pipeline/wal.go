// Write-ahead-log checkpointing for the pipeline (Config.WAL). The
// non-WAL machinery re-encodes a whole shard every CheckpointEvery
// packets — O(shard state) at every rotation, and a recovery loses all
// work since the last rotation. In WAL mode each packet job instead
// appends one self-contained record to the shard's log: the job's routing
// facts (timestamp, vid, flow key, frame length), its outcome, and the
// handler's O(changed-state) delta (DeltaCheckpointer.AppendDelta). A
// checkpoint is then just the last full snapshot plus the log's segments,
// composed without re-encoding anything, and a replacement worker resumes
// at the record before the wedged packet.
//
// Replay determinism rests on the record carrying everything the live job
// consumed from outside the shard: the pipeline-level transitions
// (advanceWorkerTime, admitFlow, quarantine bookkeeping) are re-executed
// from the recorded facts, and the handler's transition is applied from
// the recorded delta. One record per job keeps flushes atomic — a record
// cut mid-write drops the whole packet, never half of one.
//
// Gap discipline: when a delta cannot express the handler's state (e.g.
// in-flight parser fibers) the shard enters a gap — records stop, the
// composed checkpoint lags at the last appended record, and every
// subsequent job retries a full re-base (snapshot + log truncation +
// ResetDeltaBase) until one succeeds. The log therefore never contains a
// hole: it is always replayable prefix-complete.

package pipeline

import (
	"bytes"
	"fmt"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/wal"
)

// Shard blob kinds: the first byte of every per-shard blob inside a
// pipeline checkpoint stream.
const (
	shardFull byte = 1 // encodeShard output follows
	shardWAL  byte = 2 // snapshot-encoded {snap, segments...} follows
)

// walJobRecord is the record kind of per-packet job records in a shard's
// log.
const walJobRecord byte = 1

// Job outcomes recorded in the WAL. Replay re-executes exactly the state
// transitions the live job performed for that outcome.
const (
	walPacket   byte = 0 // processed normally: admit + handler delta + counters
	walQuarDrop byte = 1 // dropped, flow already quarantined
	walReject   byte = 2 // dropped by the MaxFlows cap (DropNew)
	walFault    byte = 3 // handler panicked: flow quarantined, zap state in delta
	walShed     byte = 4 // new flow refused by the overload degradation ladder
)

// initWALBase puts a slot into WAL mode: full snapshot as the base, empty
// log, handler delta tracking pinned to the current state. Runs with the
// handler quiescent (from New/Restore before start, or on the worker).
func (p *Pipeline) initWALBase(sl *wslot) error {
	dc, ok := sl.h.(DeltaCheckpointer)
	if !ok {
		return fmt.Errorf("pipeline: WAL mode requires the handler to implement DeltaCheckpointer")
	}
	snap, err := encodeShard(sl)
	if err != nil {
		return err
	}
	if err := dc.ResetDeltaBase(); err != nil {
		return err
	}
	sl.dc = dc
	sl.snap = snap
	sl.wlog = wal.NewLog(0)
	return nil
}

// walRecord appends the record for one finished packet job (no-op when
// WAL is off). For walPacket and walFault the handler's delta rides in
// the record; a delta failure opens a gap instead of logging a hole.
// Every CheckpointEvery records the shard re-bases, truncating the log.
// Failed re-bases retry with exponential packet-count backoff (capped at
// 4096) rather than every record, so a persistently unserializable
// handler costs bounded work. Runs on the owning worker goroutine.
func (p *Pipeline) walRecord(sl *wslot, tsNs int64, vid uint64, key flow.Key, hasKey bool, frameLen int, tier int, outcome byte) {
	if sl.dc == nil {
		return
	}
	if sl.walGap {
		if sl.gapSkip > 0 {
			sl.gapSkip--
			return
		}
		if !p.tryRebase(sl) {
			sl.ws.ckptFailures.Add(1)
			if sl.ckptFailN < 12 {
				sl.ckptFailN++
			}
			sl.gapSkip = backoffPackets(sl.ckptFailN)
		}
		return
	}
	var delta []byte
	if outcome == walPacket || outcome == walFault {
		d, err := sl.dc.AppendDelta()
		if err != nil {
			sl.walGap = true
			sl.ws.ckptFailures.Add(1)
			return
		}
		delta = d
	}
	var buf bytes.Buffer
	enc := snapshot.NewRawEncoder(&buf)
	enc.I64(tsNs)
	enc.U64(vid)
	enc.Bool(hasKey)
	raw := key.Wire()
	enc.Bytes(raw[:])
	enc.U32(uint32(frameLen))
	enc.U8(outcome)
	enc.U8(uint8(tier))
	enc.Bool(delta != nil)
	if delta != nil {
		enc.Bytes(delta)
	}
	sl.mu.Lock()
	err := sl.wlog.Append(walJobRecord, buf.Bytes())
	sl.mu.Unlock()
	if err != nil {
		sl.walGap = true
		sl.ws.ckptFailures.Add(1)
		return
	}
	if sl.pktSince++; sl.pktSince >= p.cfg.CheckpointEvery {
		if !p.tryRebase(sl) {
			sl.ws.ckptFailures.Add(1)
			// Retry after another full interval, not on every record.
			sl.pktSince = 0
		}
	}
}

// tryRebase replaces the shard's WAL base with a fresh full snapshot and
// truncates the log; on success any open gap closes. Runs on the owning
// worker goroutine (or before the slot is published).
func (p *Pipeline) tryRebase(sl *wslot) bool {
	blob, err := p.encodeShardRawTimed(sl)
	if err != nil {
		return false
	}
	if err := sl.dc.ResetDeltaBase(); err != nil {
		return false
	}
	sl.mu.Lock()
	sl.snap = blob
	sl.wlog.Reset()
	sl.mu.Unlock()
	sl.walGap = false
	sl.pktSince = 0
	sl.ckptFailN = 0
	sl.gapSkip = 0
	return true
}

// composeWALBlob assembles a shardWAL checkpoint blob from a snapshot and
// the log segments appended since. Pure composition — no handler access —
// so the supervisor can call it on a wedged worker's slot (under sl.mu).
func composeWALBlob(snap []byte, segs [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(shardWAL)
	enc := snapshot.NewEncoder(&buf)
	enc.Bytes(snap)
	enc.U32(uint32(len(segs)))
	for _, s := range segs {
		enc.Bytes(s)
	}
	return buf.Bytes()
}

// shardBlob produces the kind-prefixed checkpoint blob for one shard: a
// full encode in normal mode, snapshot+segments composition in WAL mode
// (healing a gap first, since a checkpoint must capture the present).
// Runs on the owning worker goroutine.
func (p *Pipeline) shardBlob(sl *wslot) ([]byte, error) {
	if sl.dc == nil {
		blob, err := encodeShard(sl)
		if err != nil {
			return nil, err
		}
		return append([]byte{shardFull}, blob...), nil
	}
	if sl.walGap && !p.tryRebase(sl) {
		return nil, fmt.Errorf("pipeline: WAL gap: shard state not currently serializable")
	}
	sl.mu.Lock()
	snap, segs := sl.snap, sl.wlog.Segments()
	sl.mu.Unlock()
	return composeWALBlob(snap, segs), nil
}

// encodeShardRawTimed is encodeShard (no kind prefix — WAL base use) with
// the latency recorded in the checkpoint histogram.
func (p *Pipeline) encodeShardRawTimed(sl *wslot) ([]byte, error) {
	start := time.Now()
	blob, err := encodeShard(sl)
	p.ckptLat.Observe(time.Since(start).Nanoseconds())
	return blob, err
}

// restoreSlotFromBlob rebuilds one worker slot from a kind-prefixed shard
// blob — the restore path shared by Restore and supervised recovery.
// shardWAL blobs replay their records onto the embedded snapshot; either
// kind restores under either Config.WAL setting, re-entering WAL mode
// when it is on.
func (p *Pipeline) restoreSlotFromBlob(i int, blob []byte) (*wslot, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("pipeline: empty shard blob")
	}
	kind, body := blob[0], blob[1:]
	ws := p.newWstate()
	var h Handler
	switch kind {
	case shardFull:
		hb, hasH, err := p.decodeShard(ws, body)
		if err != nil {
			return nil, err
		}
		switch {
		case hasH:
			h, err = p.cfg.RestoreHandler(i, hb)
		case p.cfg.NewHandler != nil:
			h, err = p.cfg.NewHandler(i)
		default:
			err = fmt.Errorf("no handler state and no NewHandler")
		}
		if err != nil {
			return nil, fmt.Errorf("handler: %w", err)
		}
	case shardWAL:
		dec := snapshot.NewDecoder(body)
		snap := dec.Bytes()
		nseg := dec.Len(1)
		segs := make([][]byte, 0, nseg)
		for j := 0; j < nseg && dec.Err() == nil; j++ {
			segs = append(segs, dec.Bytes())
		}
		if err := dec.Err(); err != nil {
			return nil, err
		}
		hb, hasH, err := p.decodeShard(ws, snap)
		if err != nil {
			return nil, err
		}
		if !hasH {
			return nil, fmt.Errorf("pipeline: WAL shard blob lacks handler state")
		}
		h, err = p.cfg.RestoreHandler(i, hb)
		if err != nil {
			return nil, fmt.Errorf("handler: %w", err)
		}
		dc, ok := h.(DeltaCheckpointer)
		if !ok {
			return nil, fmt.Errorf("pipeline: WAL shard blob but handler is not a DeltaCheckpointer")
		}
		if _, err := wal.Replay(segs, func(k byte, payload []byte) error {
			if k != walJobRecord {
				return fmt.Errorf("pipeline: unexpected WAL record kind %d", k)
			}
			return p.replayShardRecord(ws, dc, payload)
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pipeline: unknown shard blob kind %d", kind)
	}
	sl := &wslot{ws: ws, h: h, track: p.cfg.StallTimeout > 0}
	ws.owner = sl
	if p.cfg.WAL {
		if err := p.initWALBase(sl); err != nil {
			return nil, err
		}
	}
	return sl, nil
}

// replayShardRecord re-executes one job record: the worker clock advance
// and the outcome's pipeline-level transitions from the recorded facts,
// then the handler's transition from the recorded delta.
func (p *Pipeline) replayShardRecord(ws *wstate, dc DeltaCheckpointer, payload []byte) error {
	dec := snapshot.NewRawDecoder(payload)
	tsNs := dec.I64()
	vid := dec.U64()
	hasKey := dec.Bool()
	rk := dec.Bytes()
	frameLen := dec.U32()
	outcome := dec.U8()
	tier := int(dec.U8())
	hasDelta := dec.Bool()
	var delta []byte
	if hasDelta {
		delta = dec.Bytes()
	}
	if err := dec.Err(); err != nil {
		return err
	}
	key, err := flow.KeyFromWire(rk)
	if err != nil {
		return err
	}
	p.advanceWorkerTime(ws, tsNs)
	switch outcome {
	case walQuarDrop:
		ws.quarantined[vid]++
		ws.quarantineDropped.Add(1)
	case walReject:
		ws.packetsRejected.Add(1)
	case walShed:
		ws.packetsShed.Add(1)
	case walPacket:
		// The record's existence proves the live job admitted, so replay
		// never re-sheds (the class isn't recorded); the tier reproduces
		// the scaled idle deadline.
		p.admitFlow(ws, vid, key, hasKey, tsNs, tier, false)
		if hasDelta {
			if err := dc.ApplyDelta(delta); err != nil {
				return err
			}
		}
		ws.packets.Add(1)
		ws.copiedBytes.Add(uint64(frameLen))
	case walFault:
		// The live job admitted the flow, panicked, and quarantined it;
		// the handler's zap effects arrive via the delta.
		p.admitFlow(ws, vid, key, hasKey, tsNs, tier, false)
		ws.quarantined[vid] = 0
		ws.quarantinedFlows.Add(1)
		if fs, ok := ws.flows[vid]; ok {
			fs.idle.Cancel()
			p.dropFlowState(ws, fs)
		}
		if hasDelta {
			if err := dc.ApplyDelta(delta); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("pipeline: unknown WAL job outcome %d", outcome)
	}
	return nil
}
