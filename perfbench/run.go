package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/server"
)

// phase is the measured outcome of one timed phase.
type phase struct {
	rec   *recorder
	probe *recorder // the kinds the mix lacks, read just before it
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	heap  uint64 // live heap after forced GCs at the end
}

// cpuPerOp is the phase's CPU per operation in ms.
func (p phase) cpuPerOp() float64 {
	return float64(p.cpu.Nanoseconds()) / 1e6 / float64(max(p.rec.ops, 1))
}

// timed runs a fixed number of rounds after a forced GC and measures the
// process around them.
func timed(rounds int, round func()) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		round()
	}
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	// The first collection only moves what sync.Pools hold (encoding
	// buffers of the size of a snapshot, for one) to their victim caches;
	// the second frees it, so what remains is the live heap.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heap = m1.HeapAlloc
	return p
}

// alternate runs the same rounds on two rigs in turn, after a forced GC,
// and returns the CPU each spent. Both rigs' clients do the same work of
// their own, and gather their trace evidence after each round, outside
// that CPU, so the two differ only in what the engines do. Drift of the
// host falls on both alike, and since the order flips every round (a b,
// b a, a b, ...), so does whatever one round leaves to the next, such as a
// collection the other's allocation began.
func alternate(rounds int, a, b *rig) (cpuA, cpuB time.Duration) {
	runtime.GC()
	run := func(r *rig, cpu *time.Duration) {
		t0 := cpuTime()
		r.round()
		*cpu += cpuTime() - t0
		r.flush()
	}
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			run(a, &cpuA)
			run(b, &cpuB)
		} else {
			run(b, &cpuB)
			run(a, &cpuA)
		}
	}
	return cpuA, cpuB
}

// A round of the mixed workload runs mixedReads reader rounds and
// mixedWrites writer rounds at once, each client on its own connection and
// goroutine; both end before the next round starts, so the two stay in
// step. mixedWarm rounds warm it up.
const (
	mixedReads  = 2 // of 20 requests
	mixedWrites = 4 // of 10 requests
	mixedWarm   = 10
)

// rig is one loaded engine and the clients a workload drives it with: an
// in-process session and, for the concurrent mix, a server with a reader
// and a writer connection.
type rig struct {
	w              *workload
	c              *corpus
	s              *session
	srv            *server.Server
	reader, writer *wireClient
	pending        []zoomed // the reader's ZOOMIN replies, checked by collect
}

func newRig(w *workload, c *corpus, seed int64) (*rig, error) {
	r := &rig{w: w, c: c, s: newSession(c, newGen(seed))}
	if !w.concurrent {
		return r, nil
	}
	srv, addr, err := startServer(c)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	if r.reader, err = dialWire(c, addr, newGen(seed+1)); err == nil {
		r.writer, err = dialWire(c, addr, newGen(seed+2))
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close hangs up the rig's connections and stops its server; the engine
// stays open.
func (r *rig) close() {
	for _, wc := range []*wireClient{r.reader, r.writer} {
		if wc != nil {
			wc.close()
		}
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.reader, r.writer, r.srv = nil, nil, nil
}

// traceWith gives each of the rig's clients a layer log of its own.
func (r *rig) traceWith(newLog func() *layerLog) {
	r.s.lay = newLog()
	if r.w.concurrent {
		r.reader.lay, r.writer.lay = newLog(), newLog()
	}
}

// logs is the rig's layer logs, the in-process session's first.
func (r *rig) logs() []*layerLog {
	if r.s.lay == nil {
		return nil
	}
	if r.w.concurrent {
		return []*layerLog{r.s.lay, r.reader.lay, r.writer.lay}
	}
	return []*layerLog{r.s.lay}
}

// flush has the rig's clients gather the trace evidence they queued.
func (r *rig) flush() {
	for _, l := range r.logs() {
		l.flush()
	}
}

// warm builds the workload's per-run state and warms the caches.
func (r *rig) warm() {
	if !r.w.concurrent {
		r.w.warm(r.s)
		return
	}
	// The reader's ZOOMINs need an earlier result.
	r.reader.point(1+r.reader.g.r.Intn(len(r.c.led.birds)), true)
	for i := 0; i < mixedWarm; i++ {
		r.round()
	}
}

// round runs one round of the workload's mix.
func (r *rig) round() {
	if !r.w.concurrent {
		r.w.round(r.s)
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < mixedReads; i++ {
			r.readRound()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < mixedWrites; i++ {
			r.writeRound()
		}
	}()
	wg.Wait()
}

// readRound is the mixed reader's 20 requests: 12 prepared point lookups,
// 5 ad hoc range SELECTs and 3 ZOOMINs on its newest result.
func (r *rig) readRound() {
	n := len(r.c.led.birds)
	rd := r.reader
	for _, k := range deck(rd.g, share{kPoint, 12}, share{kRange, 5}, share{kZoom, 3}) {
		switch k {
		case kPoint:
			rd.point(1+rd.g.r.Intn(n), true)
		case kRange:
			lo := 1 + rd.g.r.Intn(n-rangeWidth)
			rd.rangeRead(lo, lo+rangeWidth)
		case kZoom:
			rd.zoom(&r.pending)
		}
	}
}

// writeRound is the mixed writer's 10 requests: 7 ADD ANNOTATION and 3
// durable INSERTs of a sighting, on uniformly drawn birds.
func (r *rig) writeRound() {
	n := len(r.c.led.birds)
	wr := r.writer
	for _, k := range deck(wr.g, share{kAnnotate, 7}, share{kInsert, 3}) {
		switch k {
		case kAnnotate:
			wr.annotate(1 + wr.g.r.Intn(n))
		case kInsert:
			wr.insert(r.c.nextSID, 1+wr.g.r.Intn(n))
			r.c.nextSID++
		}
	}
}

// startTimed returns what the warm-up recorded, then runs the workload's
// probe of the kinds its mix lacks, if it has one, on the state the
// warm-up left, so those figures do not depend on the timed phase; then it
// gives every client a fresh recorder.
func (r *rig) startTimed() (warm, probe *recorder) {
	warm = r.collect()
	r.s.rec = newRecorder()
	if r.w.probe != nil {
		r.w.probe(r.s)
	}
	probe = r.s.rec
	r.flush()
	r.s.rec = newRecorder()
	if r.w.concurrent {
		r.reader.rec, r.writer.rec = newRecorder(), newRecorder()
		r.pending = nil
	}
	return warm, probe
}

// collect is what the clients recorded since they were given fresh
// recorders: the warm-up, or the timed phase after startTimed. The reader's
// ZOOMIN replies are checked here, when every write they could show is
// acknowledged.
func (r *rig) collect() *recorder {
	if !r.w.concurrent {
		return r.s.rec
	}
	rec := newRecorder()
	rec.merge(r.reader.rec)
	rec.merge(r.writer.rec)
	for _, z := range r.pending {
		if err := r.c.led.checkZoom(z.bird, z.ids, z.texts, -1); err != nil {
			rec.wrong++
			if len(rec.errs) < 10 {
				rec.errs = append(rec.errs, wrong(err).Error())
			}
		}
	}
	return rec
}

// startServer serves the corpus over TCP on a loopback port, with
// admission control at nproc statements as a deployment would set it.
func startServer(c *corpus) (*server.Server, string, error) {
	srv := server.New(c.db)
	srv.Admission = server.AdmissionConfig{MaxStatements: runtime.NumCPU()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// wireProbe runs 40 prepared and 20 ad hoc point lookups over TCP.
func wireProbe(c *corpus, g *gen, lay *layerLog) (*recorder, error) {
	srv, addr, err := startServer(c)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	wc, err := dialWire(c, addr, g)
	if err != nil {
		return nil, err
	}
	defer wc.close()
	wc.lay = lay
	n := len(c.led.birds)
	for i := 0; i < 60; i++ {
		wc.point(1+g.r.Intn(n), i%3 != 2)
	}
	return wc.rec, nil
}

// loads is how often an untraced run sets up; the median is reported.
const loads = 7

// epilogue is what every workload measures after its timed phase.
type epilogue struct {
	probe     *recorder // up to the point the traced evidence ends
	rest      *recorder // the rest: counted as attempted, nothing else
	restarts  []float64 // seconds
	replayed  []float64
	ckpts     []float64 // seconds
	snapshots []float64 // bytes
	diskBytes int64
	after     counters // traced: counters after the wire probe
}

// finish runs everything a workload does after its timed phase, in an
// order that keeps each step's figures apart from the others':
//
//   - a replay block, which gives the traced evidence of every workload
//     batches and WAL spans, then, when traced, on the in-process
//     workloads, a few point lookups over TCP, so the server layer is
//     traced there too;
//   - repeated checkpoints;
//   - a second replay block, so that each restart replays the same WAL
//     tail on every workload, then repeated restarts and a read-back of
//     the whole ledger;
//   - a final checkpoint, and the size of the data dir.
//
// A traced run checkpoints and restarts once: the figures it reports from
// them do not vary.
func finish(w *workload, c *corpus, g *gen, lay *layerLog) (*epilogue, error) {
	ep := &epilogue{}
	repeats := w.repeats
	if lay != nil {
		repeats = 1
	}
	s := newSession(c, g)
	s.lay = lay
	replayBlock(s)
	ep.probe = newRecorder()
	ep.probe.count(s.rec)
	if !w.concurrent && lay != nil {
		rec, err := wireProbe(c, g, lay)
		if err != nil {
			return nil, err
		}
		ep.probe.merge(rec)
	}
	if lay != nil {
		lay.flush()
		ep.after = readCounters(c.db)
	}
	// Later statements are not part of the traced evidence, nor of the
	// latency metrics.
	s.lay = nil
	s.rec = newRecorder()
	for i := 0; i < repeats; i++ {
		start := time.Now()
		ci, err := c.db.Checkpoint()
		if err != nil {
			return nil, err
		}
		ep.ckpts = append(ep.ckpts, time.Since(start).Seconds())
		ep.snapshots = append(ep.snapshots, float64(ci.SnapshotBytes))
	}
	replayBlock(s)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := c.close(); err != nil {
			return nil, err
		}
		info, err := c.open()
		if err != nil {
			return nil, err
		}
		ep.restarts = append(ep.restarts, time.Since(start).Seconds())
		ep.replayed = append(ep.replayed, float64(info.Replayed))
	}
	s.verify()
	ep.rest = s.rec
	if _, err := c.db.Checkpoint(); err != nil {
		return nil, err
	}
	var err error
	ep.diskBytes, err = dirBytes(c.dir)
	return ep, err
}

// replayBlock writes 50 ADD ANNOTATION, 2 AnnotateBatch calls of 32 and a
// BULK INSERT of 25 rows: 53 WAL records that every restart replays.
func replayBlock(s *session) {
	birds := len(s.c.led.birds)
	uniform := func() []int { return []int{1 + s.g.r.Intn(birds)} }
	for i := 0; i < 50; i++ {
		s.annotate(uniform()[0])
		if i%25 == 0 {
			s.batch(32, uniform)
		}
	}
	s.bulk(25)
}

// settle makes every file the set-ups wrote durable, so that the file
// system writes them back now rather than in the middle of the timed
// phase, where each journal commit would have to carry them.
func settle(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// removeDir deletes dir and waits until the file system has committed the
// deletion, so that freeing the blocks (a discard to the disk, where the
// file system is mounted with discard) happens here and not in the middle
// of whatever is measured next, in this process or the next run's.
func removeDir(dir string) {
	os.RemoveAll(dir)
	if parent, err := os.Open(filepath.Dir(dir)); err == nil {
		parent.Sync()
		parent.Close()
	}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// outcome is everything one run of one workload reports.
type outcome struct {
	attempted, failed, wrong int
	errs                     []string
	metrics                  map[string]float64
	// notes says how many samples stand behind each latency metric, and at
	// which percentile each tail was taken.
	notes []string
}

func (o *outcome) account(r *recorder) {
	o.attempted += r.ops
	o.failed += r.failed
	o.wrong += r.wrong
	o.errs = append(o.errs, r.errs...)
}

// runWorkload runs one workload once: set-up (repeated, median reported),
// warm-up, the timed phase of perSecond × seconds rounds, and the
// epilogue.
//
// With traced set, the corpus is set up on two engines, one at the default
// trace sampling and one that traces every statement; they run the same
// rounds in turn, and the outcome holds the per-layer metrics instead of
// the end-to-end ones.
func runWorkload(w *workload, root string, seed int64, seconds int, traced bool, spansPath string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	n := loads
	if traced {
		n = 2
	}
	var setups []float64
	var kept []*corpus
	var rigs []*rig
	defer func() {
		for _, r := range rigs {
			r.close()
		}
		for _, c := range kept {
			c.close()
		}
	}()
	for i := 0; i < n; i++ {
		cfg := engine.Config{}
		if traced && i == 1 {
			cfg.TraceSample = 1
		}
		c, d, err := timedLoad(filepath.Join(root, fmt.Sprintf("%s-%d", w.name, i)), cfg, w.spec, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if !traced && i < n-1 {
			// Its data dir stays until the run ends: deleting it here would
			// have the file system discard its blocks during the timed phase.
			if err := c.close(); err != nil {
				return nil, err
			}
			continue
		}
		kept = append(kept, c)
	}
	if err := settle(root); err != nil {
		return nil, err
	}
	opSeed := seed*7919 + 17
	for _, c := range kept {
		r, err := newRig(w, c, opSeed)
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, r)
		r.warm()
	}
	// r is the rig whose phase is reported; in a traced run, rigs[0] is the
	// engine at the default trace sampling it is compared with, whose
	// clients gather the same evidence, which is then dropped.
	r := rigs[len(rigs)-1]
	var before counters
	if traced {
		origin := time.Now()
		for i, rg := range rigs {
			scratch := filepath.Join(root, fmt.Sprintf("scratch-cache-%d", i))
			rg.traceWith(func() *layerLog { return newLayerLog(origin, scratch) })
		}
		before = readCounters(r.c.db)
	}
	probes := make([]*recorder, len(rigs))
	for i, rg := range rigs {
		var warm *recorder
		warm, probes[i] = rg.startTimed()
		out.account(warm)
	}
	rounds := w.perSecond * seconds
	var p phase
	var cpuUntraced, cpuTraced time.Duration
	ckpts := regSnapshot(r.c.db)[mCheckpoints]
	if traced {
		cpuUntraced, cpuTraced = alternate(rounds, rigs[0], r)
		out.account(rigs[0].collect())
		out.account(probes[0])
	} else {
		p = timed(rounds, r.round)
	}
	out.notes = append(out.notes, fmt.Sprintf("timed phase: %d rounds, %g size-triggered checkpoints",
		rounds, regSnapshot(r.c.db)[mCheckpoints]-ckpts))
	p.rec, p.probe = r.collect(), probes[len(probes)-1]
	out.account(p.rec)
	out.account(p.probe)
	var lay *layerLog
	r.flush()
	if logs := r.logs(); logs != nil {
		lay = logs[0]
		for _, l := range logs[1:] {
			lay.merge(l)
		}
	}
	for _, rg := range rigs {
		rg.close()
	}
	if traced {
		if err := kept[0].close(); err != nil {
			return nil, err
		}
	}
	ep, err := finish(w, r.c, newGen(opSeed+1), lay)
	if err != nil {
		return nil, err
	}
	out.account(ep.probe)
	out.account(ep.rest)
	ep.probe.merge(p.probe)
	if !traced {
		e2eMetrics(out, setups, p, ep)
		return out, nil
	}
	if err := writeSpans(spansPath, lay.spans); err != nil {
		return nil, err
	}
	out.metrics = layerMetrics(layerInputs{
		log: lay, before: before, after: ep.after,
		ops: p.rec.ops + ep.probe.ops, anns: p.rec.anns + ep.probe.anns,
		replayed: ep.replayed, snapshotBytes: ep.snapshots,
		cpuTraced: cpuTraced, cpuUntraced: cpuUntraced,
	})
	return out, nil
}

// e2eMetrics fills the end-to-end metrics of an untraced run. Latencies of
// a kind the timed mix lacks come from the probe before it.
//
// Only the metrics that repeat from run to run on a few shared cores are
// gated (see BENCHMARK.json); the others are shown as notes. Those follow
// the host more than the program there: the p50 of a point SELECT jumps
// between two levels about 3x apart from one run to the next; a single
// durable statement's latency, and every rate that includes it, is mostly
// one fsync of a shared disk; range and join SELECTs run a parallel scan
// on both vCPUs and slow down with the time the hypervisor takes from
// either; and restart and checkpoint times and the tails spread 15-70%
// across five seeds, near or past the 25% bound.
func e2eMetrics(out *outcome, setups []float64, p phase, ep *epilogue) {
	m := out.metrics
	ops := float64(p.rec.ops)
	m["setup_s"] = median(setups)
	m["cpu_ms_per_op"] = p.cpuPerOp()
	m["alloc_kb_per_op"] = float64(p.alloc) / 1024 / ops
	m["heap_mb"] = float64(p.heap) / (1 << 20)
	m["disk_mb"] = float64(ep.diskBytes) / (1 << 20)
	source := func(kind string) (samples, string) {
		src, where := p.rec, "timed"
		if !src.has(kind) {
			src, where = ep.probe, "probe"
		}
		if src.lat[kind] == nil {
			return nil, where
		}
		return *src.lat[kind], where
	}
	note := func(format string, args ...any) { out.notes = append(out.notes, fmt.Sprintf(format, args...)) }
	zooms, where := source(kZoom)
	m["zoom_p50_ms"] = median(zooms)
	note("zoom_p50_ms: median of %d %s samples", len(zooms), where)
	note("not gated: ops_per_s %.4f 1/s", ops/p.wall.Seconds())
	for _, k := range []struct{ name, kind string }{{"point", kPoint}, {"range", kRange}, {"join", kJoin}, {"annotate", kAnnotate}} {
		if s, where := source(k.kind); len(s) > 0 {
			note("not gated: %s_p50_ms %.4f ms, median of %d %s samples", k.name, median(s), len(s), where)
		}
	}
	for _, t := range []struct {
		name         string
		timed, probe samples
	}{{"read", p.rec.reads, ep.probe.reads}, {"write", p.rec.writes, ep.probe.writes}} {
		s, where := t.timed, "timed"
		if len(s) == 0 {
			s, where = t.probe, "probe"
		}
		if len(s) > 0 {
			v, pct := tail(s)
			note("not gated: %s tail %.4f ms, p%g of %d %s samples", t.name, v, pct, len(s), where)
		}
	}
	if p.rec.anns > 0 {
		note("not gated: ingest_ann_per_s %.4f 1/s", float64(p.rec.anns)/p.wall.Seconds())
	}
	note("not gated: restart_s %.4f s, checkpoint_s %.4f s, medians of %d", median(ep.restarts), median(ep.ckpts), len(ep.restarts))
}
