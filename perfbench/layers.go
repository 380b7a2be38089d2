package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/exec"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/zoomin"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchSpan is one span the benchmark records around a public call. Engine
// spans fetched by trace id are kept beside it under the same trace id.
type benchSpan struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// layerLog gathers the per-layer evidence of a traced run: engine spans
// fetched by trace id, the benchmark's own spans around each public call,
// statement counters, and outside timing of zoom-in materialization. One
// goroutine owns a layerLog; concurrent clients each keep their own and
// merge at the end.
//
// Fetching a trace and timing a materialization are work of the
// benchmark's, so a client only queues them (later) while it runs a round;
// flush does them after the round, outside the CPU the traced engine is
// charged. The engine keeps the last 512 traces; a round issues far fewer
// statements, and a queue that reaches flushAt is flushed at once.
type layerLog struct {
	origin time.Time
	spans  []benchSpan

	parse, plan, walAppend, walCommit, expand, queueWait samples
	unspanned, wire, scanSelf, joinSelf                  samples
	materialize, resultKB                                samples

	maintainNS   float64 // summary maintenance time of annotation writes
	maintainAnns int

	reads                         int
	opRows, rows, merges, curates int64
	scratchDir                    string
	scratch                       *zoomin.Cache
	later                         []func()
}

const flushAt = 256

// queue defers f to the next flush.
func (l *layerLog) queue(f func()) {
	l.later = append(l.later, f)
	if len(l.later) >= flushAt {
		l.flush()
	}
}

// flush does the work queued since the last flush.
func (l *layerLog) flush() {
	for _, f := range l.later {
		f()
	}
	l.later = l.later[:0]
}

func newLayerLog(origin time.Time, scratchDir string) *layerLog {
	return &layerLog{origin: origin, scratchDir: scratchDir}
}

func (l *layerLog) merge(o *layerLog) {
	l.spans = append(l.spans, o.spans...)
	for _, p := range [][2]*samples{
		{&l.parse, &o.parse}, {&l.plan, &o.plan}, {&l.walAppend, &o.walAppend},
		{&l.walCommit, &o.walCommit}, {&l.expand, &o.expand}, {&l.queueWait, &o.queueWait},
		{&l.unspanned, &o.unspanned}, {&l.wire, &o.wire}, {&l.scanSelf, &o.scanSelf},
		{&l.joinSelf, &o.joinSelf}, {&l.materialize, &o.materialize}, {&l.resultKB, &o.resultKB},
	} {
		*p[0] = append(*p[0], *p[1]...)
	}
	l.maintainNS += o.maintainNS
	l.maintainAnns += o.maintainAnns
	l.reads += o.reads
	l.opRows += o.opRows
	l.rows += o.rows
	l.merges += o.merges
	l.curates += o.curates
}

// call records the benchmark-side span around one public call.
func (l *layerLog) call(name, traceID string, start time.Time, wall time.Duration) {
	l.spans = append(l.spans, benchSpan{Name: "bench." + name, Trace: traceID,
		Start: start.Sub(l.origin).Nanoseconds(), Dur: wall.Nanoseconds()})
}

// statement queues the folding of one executed statement into the log:
// the engine spans of its trace and its call span. wire marks a statement
// sent over TCP, whose wall time includes the protocol. anns is the number
// of annotations the statement wrote and fsync the WAL fsync time it
// waited for.
func (l *layerLog) statement(db *engine.DB, kind, traceID string, start time.Time, wall time.Duration, wire bool, anns int, fsync time.Duration) {
	l.queue(func() { l.fold(db, kind, traceID, start, wall, wire, anns, fsync) })
}

func (l *layerLog) fold(db *engine.DB, kind, traceID string, start time.Time, wall time.Duration, wire bool, anns int, fsync time.Duration) {
	l.call(kind, traceID, start, wall)
	if traceID == "" {
		return
	}
	id, err := trace.ParseID(traceID)
	if err != nil {
		return
	}
	t, ok := db.Tracer().Get(id)
	if !ok || len(t.Spans) == 0 {
		return
	}
	self := selfTimes(t.Spans)
	if anns > 0 {
		// An annotation write has no exec or WAL span: what the statement
		// spent besides parsing, admission and the fsync is the summary
		// maintenance, the WAL staging and the lock.
		maintain := t.Spans[0].Dur - fsync
		for _, sp := range t.Spans[1:] {
			if sp.Parent == 0 && (sp.Name == trace.SpanParse || sp.Name == trace.SpanQueueWait) {
				maintain -= sp.Dur
			}
		}
		l.maintain(maintain, anns)
	}
	var scan time.Duration
	hasScan, hasJoin := false, false
	var join time.Duration
	for i, sp := range t.Spans {
		us := float64(sp.Dur.Nanoseconds()) / 1e3
		switch {
		case i == 0:
			l.unspanned.add(float64(self[0].Nanoseconds()) / 1e3)
			if wire {
				l.wire.add(float64((wall - sp.Dur).Nanoseconds()) / 1e3)
			}
		case sp.Name == trace.SpanParse:
			l.parse.add(us)
		case sp.Name == trace.SpanPlan:
			l.plan.add(us)
		case sp.Name == trace.SpanWALAppend:
			l.walAppend.add(us)
		case sp.Name == trace.SpanWALCommit:
			l.walCommit.add(us)
		case sp.Name == trace.SpanZoomExpand:
			l.expand.add(us)
		case sp.Name == trace.SpanQueueWait:
			l.queueWait.add(us)
		case isScanSpan(sp.Name) && sp.Dur > 0:
			// Operator walls are collected on the engine's timing-sampled
			// statements only (one in 16); the others carry zero.
			scan += self[i]
			hasScan = true
		case sp.Name == trace.OpSpan("hash_join") && sp.Dur > 0:
			// An operator's wall covers its own NextBatch calls. The scans
			// under a join do their work when the join opens them, outside
			// the join's wall, so the wall is the join's own time: the
			// synthesized child spans do not nest inside it.
			join += sp.Dur
			hasJoin = true
		}
	}
	if hasScan && kind == kRange {
		l.scanSelf.add(float64(scan.Nanoseconds()) / 1e3)
	}
	if hasJoin && kind == kJoin {
		l.joinSelf.add(float64(join.Nanoseconds()) / 1e3)
	}
	l.spans = append(l.spans, engineSpans(t, l.origin)...)
}

// maintain adds the summary maintenance time of a write of anns
// annotations.
func (l *layerLog) maintain(d time.Duration, anns int) {
	l.maintainNS += float64(max(d, 0).Nanoseconds())
	l.maintainAnns += anns
}

// fsyncTotal is the engine's cumulative WAL fsync time.
func (l *layerLog) fsyncTotal(db *engine.DB) time.Duration {
	return time.Duration(regSnapshot(db)[mFsyncSeconds] * 1e9)
}

// read folds one read's statement counters.
func (l *layerLog) read(rows int, opRows, merges, curates int64) {
	l.reads++
	l.rows += int64(rows)
	l.opRows += opRows
	l.merges += merges
	l.curates += curates
}

// materialized queues the timing, from outside the engine, of what the
// engine does with every SELECT result: project it into the zoom-in form
// and put it in a cache. A scratch cache holds one result at a time, so
// its used bytes are the encoded size.
func (l *layerLog) materialized(res *engine.Result, sqlText string) {
	l.queue(func() { l.timeMaterialize(res, sqlText) })
}

func (l *layerLog) timeMaterialize(res *engine.Result, sqlText string) {
	if l.scratch == nil {
		// The scratch cache takes one result at a time; its budget only
		// has to admit the largest of them.
		sc, err := zoomin.NewCache(l.scratchDir, 1<<30, zoomin.RCO{})
		if err != nil {
			return
		}
		l.scratch = sc
	}
	start := time.Now()
	cr := zoomin.BuildCachedResult(res.QID, sqlText, res.Schema, res.Rows, 1)
	l.scratch.Clear()
	if err := l.scratch.Put(cr); err != nil {
		return
	}
	d := time.Since(start)
	l.materialize.add(float64(d.Nanoseconds()) / 1e3)
	l.resultKB.add(float64(l.scratch.Stats().UsedBytes) / 1024)
	l.spans = append(l.spans, benchSpan{Name: "bench.zoomin.materialize", Trace: res.TraceID,
		Start: start.Sub(l.origin).Nanoseconds(), Dur: d.Nanoseconds()})
}

func isScanSpan(name string) bool {
	switch name {
	case trace.OpSpan("scan"), trace.OpSpan("parallel_scan"), trace.OpSpan("index_scan"), trace.OpSpan("index_range_scan"):
		return true
	}
	return false
}

// selfTimes is each span's duration minus the durations of its children,
// as the engine's trace renderer derives it. Operator spans are
// synthesized after execution and all start where their parent starts, so
// their intervals do not say when a child ran; their durations do.
func selfTimes(spans []trace.Span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		out[i] = sp.Dur
	}
	for _, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) {
			out[sp.Parent] -= sp.Dur
		}
	}
	for i := range out {
		out[i] = max(out[i], 0)
	}
	return out
}

// engineSpans converts a fetched engine trace into spans on the run's
// clock, parented by name.
func engineSpans(t *trace.Trace, origin time.Time) []benchSpan {
	base := t.Start.Sub(origin)
	out := make([]benchSpan, len(t.Spans))
	for i, sp := range t.Spans {
		parent := ""
		if sp.Parent >= 0 && sp.Parent < len(t.Spans) {
			parent = t.Spans[sp.Parent].Name
		}
		out[i] = benchSpan{Name: sp.Name, Parent: parent, Trace: t.ID.String(),
			Start: (base + sp.Start).Nanoseconds(), Dur: sp.Dur.Nanoseconds()}
	}
	return out
}

// writeSpans writes every span of the run as JSON lines.
func writeSpans(path string, spans []benchSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// regSnapshot reads the engine's metric registry into name → value.
func regSnapshot(db *engine.DB) map[string]float64 {
	out := map[string]float64{}
	for _, s := range db.Metrics().Samples() {
		out[s.Name] = s.Value
	}
	return out
}

// counters are the registry values and cache statistics read at the start
// and end of a traced phase.
type counters struct {
	reg  map[string]float64
	plan [2]int64 // plan cache hits, misses
	zoom [2]int64 // zoom-in cache hits, misses
}

func readCounters(db *engine.DB) counters {
	pc := db.PlanCacheStats()
	zc := db.Cache().Stats()
	return counters{reg: regSnapshot(db), plan: [2]int64{pc.Hits, pc.Misses}, zoom: [2]int64{zc.Hits, zc.Misses}}
}

const (
	mPoolHits     = "insightnotes_bufferpool_hits"
	mPoolMisses   = "insightnotes_bufferpool_misses"
	mFullScans    = `insightnotes_plan_access_paths_total{path="full_scan"}`
	mDigestHits   = "insightnotes_summary_digest_hits_total"
	mDigestMisses = "insightnotes_summary_digest_misses_total"
	mAnnBytes     = "insightnotes_engine_annotation_bytes"
	mAnns         = "insightnotes_engine_annotations"
	mAppends      = "insightnotes_wal_appends_total"
	mGroupBatches = "insightnotes_wal_group_commit_batches_total"
	mWALBytes     = "insightnotes_wal_bytes_total"
	mCheckpoints  = "insightnotes_wal_checkpoints_total"
	mFsyncSeconds = "insightnotes_wal_fsync_seconds_sum"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInputs is the evidence of one traced run.
type layerInputs struct {
	log           *layerLog
	before, after counters
	ops           int // operations of the traced phase
	anns          int // annotations acknowledged in it
	replayed      []float64
	snapshotBytes []float64
	// CPU of the same timed rounds on the traced engine and on the one at
	// the default sampling.
	cpuTraced, cpuUntraced time.Duration
}

func layerMetrics(in layerInputs) map[string]float64 {
	l := in.log
	d := func(name string) float64 { return in.after.reg[name] - in.before.reg[name] }
	p50 := func(s samples) float64 {
		if len(s) == 0 {
			return 0
		}
		return median(s)
	}
	planHits := float64(in.after.plan[0] - in.before.plan[0])
	planMisses := float64(in.after.plan[1] - in.before.plan[1])
	zoomHits := float64(in.after.zoom[0] - in.before.zoom[0])
	zoomMisses := float64(in.after.zoom[1] - in.before.zoom[1])
	m := map[string]float64{
		"sql.parse_us":                p50(l.parse),
		"plan.plan_us":                p50(l.plan),
		"plan.cache_hit_ratio":        ratio(planHits, planHits+planMisses),
		"plan.full_scans_per_read":    ratio(d(mFullScans), float64(l.reads)),
		"exec.scan_us":                p50(l.scanSelf),
		"exec.join_us":                p50(l.joinSelf),
		"exec.rows_examined_per_row":  ratio(float64(l.opRows), float64(l.rows)),
		"summary.merges_per_read":     ratio(float64(l.merges), float64(l.reads)),
		"summary.curates_per_read":    ratio(float64(l.curates), float64(l.reads)),
		"summary.maintain_us_per_ann": ratio(l.maintainNS/1e3, float64(l.maintainAnns)),
		"summary.digest_hit_ratio":    ratio(d(mDigestHits), d(mDigestHits)+d(mDigestMisses)),
		"annotation.bytes_per_ann":    ratio(in.after.reg[mAnnBytes], in.after.reg[mAnns]),
		"storage.pool_hit_ratio":      ratio(d(mPoolHits), d(mPoolHits)+d(mPoolMisses)),
		"storage.pool_misses_per_op":  ratio(d(mPoolMisses), float64(in.ops)),
		"wal.append_us":               p50(l.walAppend),
		"wal.commit_us":               p50(l.walCommit),
		"wal.records_per_fsync":       ratio(d(mAppends), d(mGroupBatches)),
		"wal.bytes_per_ann":           ratio(d(mWALBytes), float64(in.anns)),
		"wal.checkpoints":             d(mCheckpoints),
		"zoomin.materialize_us":       p50(l.materialize),
		"zoomin.result_kb":            p50(l.resultKB),
		"zoomin.expand_us":            p50(l.expand),
		"zoomin.hit_ratio":            ratio(zoomHits, zoomHits+zoomMisses),
		"engine.unspanned_us":         p50(l.unspanned),
		"engine.replayed_records":     median(in.replayed),
		"engine.snapshot_mb":          median(in.snapshotBytes) / (1 << 20),
		"server.wire_us":              p50(l.wire),
		"server.queue_wait_us":        p50(l.queueWait),
		"trace.overhead_pct":          100 * float64(in.cpuTraced-in.cpuUntraced) / float64(in.cpuUntraced),
	}
	return m
}

// labelCounts parses a rendered ClassBird1 object,
// "ClassBird1 [(Behavior, 3), (Disease, 0), (Anatomy, 1), (Other, 0)]",
// into its four label counts. An empty rendering is a row without
// annotations.
func labelCounts(rendered string) ([4]int64, error) {
	var lc [4]int64
	if rendered == "" {
		return lc, nil
	}
	open := strings.IndexByte(rendered, '[')
	if open < 0 || !strings.HasSuffix(rendered, "]") {
		return lc, fmt.Errorf("summary %q: not a classifier rendering", rendered)
	}
	body := strings.TrimSuffix(rendered[open+1:], "]")
	parts := strings.Split(body, "), (")
	if len(parts) != len(classes) {
		return lc, fmt.Errorf("summary %q: %d labels, want %d", rendered, len(parts), len(classes))
	}
	for i, p := range parts {
		p = strings.Trim(p, "()")
		var label string
		var n int64
		comma := strings.LastIndexByte(p, ',')
		if comma < 0 {
			return lc, fmt.Errorf("summary %q: bad label %q", rendered, p)
		}
		label = p[:comma]
		if _, err := fmt.Sscanf(strings.TrimSpace(p[comma+1:]), "%d", &n); err != nil {
			return lc, fmt.Errorf("summary %q: bad count in %q", rendered, p)
		}
		if label != classes[i] {
			return lc, fmt.Errorf("summary %q: label %d is %q, want %q", rendered, i+1, label, classes[i])
		}
		lc[i] = n
	}
	return lc, nil
}

// rowLabels reads the ClassBird1 label counts of an in-process result row.
func rowLabels(row *exec.Row) ([4]int64, error) {
	if row.Env == nil {
		return [4]int64{}, nil
	}
	obj := row.Env.Object(instance)
	if obj == nil {
		return [4]int64{}, nil
	}
	return labelCounts(obj.Render())
}

func sum4(lc [4]int64) int64 { return lc[0] + lc[1] + lc[2] + lc[3] }

// intValue reads an integer column, whichever numeric kind it arrived as.
func intValue(v types.Value) int {
	if v.Kind() == types.KindFloat {
		return int(v.Float())
	}
	return int(v.Int())
}
