package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/server"
	"insightnotes/internal/types"
)

// instance is the summary instance every workload reads and checks.
const instance = "ClassBird1"

// Operation kinds. Every operation a workload issues is one of these.
const (
	kPoint    = "point"    // indexed point SELECT (prepared EXECUTE over TCP)
	kRange    = "range"    // 20-row annotated range SELECT
	kWide     = "wide"     // 200-row range SELECT that fills the zoom-in cache
	kJoin     = "join"     // birds ⋈ sightings with summary merge
	kZoom     = "zoom"     // ZOOMIN on an earlier result
	kAnnotate = "annotate" // one durable ADD ANNOTATION statement
	kBatch    = "batch"    // AnnotateBatch
	kBulk     = "bulk"     // BULK INSERT of sightings
	kInsert   = "insert"   // one durable INSERT of a sighting
	kVerify   = "verify"   // full read-back of the ledger after a restart
)

func isWrite(kind string) bool {
	switch kind {
	case kAnnotate, kBatch, kBulk, kInsert:
		return true
	}
	return false
}

// errWrong marks an answer that disagrees with the ledger, as opposed to an
// operation the program failed.
var errWrong = errors.New("wrong answer")

func wrong(err error) error { return fmt.Errorf("%w: %v", errWrong, err) }

// recorder keeps the outcome of every operation of one phase.
type recorder struct {
	lat                map[string]*samples // latency in ms by kind
	reads, writes      samples
	ops, failed, wrong int
	anns               int      // annotations acknowledged
	errs               []string // the first failures and wrong answers
}

func newRecorder() *recorder { return &recorder{lat: map[string]*samples{}} }

func (r *recorder) record(kind string, d time.Duration, anns int, err error) {
	r.ops++
	if err != nil {
		if errors.Is(err, errWrong) {
			r.wrong++
		} else {
			r.failed++
		}
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	s := r.lat[kind]
	if s == nil {
		s = &samples{}
		r.lat[kind] = s
	}
	s.addDur(d)
	if isWrite(kind) {
		r.writes.addDur(d)
		r.anns += anns
	} else {
		r.reads.addDur(d)
	}
}

func (r *recorder) merge(o *recorder) {
	for k, s := range o.lat {
		if r.lat[k] == nil {
			r.lat[k] = &samples{}
		}
		*r.lat[k] = append(*r.lat[k], *s...)
	}
	r.reads = append(r.reads, o.reads...)
	r.writes = append(r.writes, o.writes...)
	r.count(o)
}

// count adds o's operations, annotations, failures and wrong answers but
// not its latencies.
func (r *recorder) count(o *recorder) {
	r.ops += o.ops
	r.anns += o.anns
	r.failed += o.failed
	r.wrong += o.wrong
	r.errs = append(r.errs, o.errs...)
}

func (r *recorder) has(kind string) bool { return r.lat[kind] != nil && len(*r.lat[kind]) > 0 }

// result is one remembered SELECT: its QID and the label counts it
// reported for each bird, for later ZOOMINs.
type result struct {
	qid    int
	labels map[int][4]int64
}

// session issues operations in-process against one corpus and checks every
// answer against the ledger.
type session struct {
	c    *corpus
	g    *gen
	rec  *recorder
	lay  *layerLog // nil when not traced
	ctx  context.Context
	zipf *rand.Zipf // skewed annotation targets (firehose)

	ranges []result // range results, newest last
	wides  []result // wide results, the far zoom targets
	far    int      // next wide result a far zoom takes
}

func newSession(c *corpus, g *gen) *session {
	return &session{c: c, g: g, rec: newRecorder(), ctx: context.Background()}
}

func (s *session) db() *engine.DB { return s.c.db }

// do runs one operation, times it and records it.
func (s *session) do(kind string, op func() (anns int, err error)) {
	start := time.Now()
	anns, err := op()
	s.rec.record(kind, time.Since(start), anns, err)
}

// query runs one SELECT and, when traced, folds its trace.
func (s *session) query(kind, q string) (*engine.Result, error) {
	start := time.Now()
	res, err := s.db().Query(s.ctx, q)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if s.lay != nil {
		s.lay.statement(s.db(), kind, res.TraceID, start, wall, false, 0, 0)
		if st := res.Stats; st != nil {
			s.lay.read(st.Rows, st.OpRows, st.Merges, st.Curates)
		}
		s.lay.materialized(res, q)
	}
	return res, nil
}

// exec runs one non-SELECT statement and, when traced, folds its trace.
func (s *session) exec(kind, stmt string, anns int) (*engine.Result, error) {
	var fsync0 time.Duration
	if s.lay != nil && anns > 0 {
		fsync0 = s.lay.fsyncTotal(s.db())
	}
	start := time.Now()
	res, err := s.db().Exec(s.ctx, stmt)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if s.lay != nil {
		var fsync time.Duration
		if anns > 0 {
			fsync = s.lay.fsyncTotal(s.db()) - fsync0
		}
		s.lay.statement(s.db(), kind, res.TraceID, start, wall, false, anns, fsync)
		if kind == kZoom {
			s.lay.reads++
		}
	}
	return res, nil
}

func pointSQL(id int) string {
	return fmt.Sprintf("SELECT id, name, sci_name, region, wingspan FROM birds WHERE id = %d", id)
}

func rangeSQL(lo, hi int) string {
	return fmt.Sprintf("SELECT id, name, region FROM birds WHERE id >= %d AND id < %d", lo, hi)
}

func joinSQL(lo, hi int) string {
	return fmt.Sprintf("SELECT b.id, b.name, s.sid, s.region FROM birds b, sightings s "+
		"WHERE b.id = s.bird_id AND b.id >= %d AND b.id < %d", lo, hi)
}

// point reads one bird and checks its row and annotation count.
func (s *session) point(id int) {
	s.do(kPoint, func() (int, error) {
		res, err := s.query(kPoint, pointSQL(id))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 {
			return 0, wrong(fmt.Errorf("point %d: %d rows", id, len(res.Rows)))
		}
		if err := s.c.led.checkRow(id, res.Rows[0].Tuple); err != nil {
			return 0, wrong(err)
		}
		lc, err := rowLabels(res.Rows[0])
		if err != nil {
			return 0, wrong(err)
		}
		n := s.c.led.annCount(id)
		if err := checkLabelSum(id, sum4(lc), n, n); err != nil {
			return 0, wrong(err)
		}
		return 0, nil
	})
}

// rangeRead reads birds lo <= id < hi and checks ids and annotation counts.
// It remembers the result for ZOOMINs.
func (s *session) rangeRead(kind string, lo, hi int) {
	s.do(kind, func() (int, error) {
		res, err := s.query(kind, rangeSQL(lo, hi))
		if err != nil {
			return 0, err
		}
		r := result{qid: res.QID, labels: make(map[int][4]int64, len(res.Rows))}
		ids := make([]int, len(res.Rows))
		for i, row := range res.Rows {
			ids[i] = intValue(row.Tuple[0])
			lc, err := rowLabels(row)
			if err != nil {
				return 0, wrong(err)
			}
			n := s.c.led.annCount(ids[i])
			if err := checkLabelSum(ids[i], sum4(lc), n, n); err != nil {
				return 0, wrong(err)
			}
			r.labels[ids[i]] = lc
		}
		if err := checkRange(lo, hi, ids); err != nil {
			return 0, wrong(err)
		}
		if kind == kWide {
			s.wides = append(s.wides, r)
		} else {
			s.ranges = append(s.ranges, r)
			if len(s.ranges) > 64 {
				s.ranges = append(s.ranges[:0], s.ranges[len(s.ranges)-8:]...)
			}
		}
		return 0, nil
	})
}

// join reads the sightings of birds lo <= id < hi and checks the number of
// pairs.
func (s *session) join(lo, hi int) {
	s.do(kJoin, func() (int, error) {
		res, err := s.query(kJoin, joinSQL(lo, hi))
		if err != nil {
			return 0, err
		}
		if err := s.c.led.checkJoin(lo, hi, len(res.Rows)); err != nil {
			return 0, wrong(err)
		}
		return 0, nil
	})
}

// zoom expands one label of one bird of an earlier result and checks that
// every annotation returned is attached to that bird and that their number
// is the label count the result reported. An in-process session has no
// concurrent writer, so a re-executed result reports the same counts.
func (s *session) zoom(r result) {
	bird, label, want := pickZoom(s.g, r)
	s.do(kZoom, func() (int, error) {
		stmt := fmt.Sprintf("ZOOMIN REFERENCE QID %d WHERE id = %d ON %s INDEX %d", r.qid, bird, instance, label)
		res, err := s.exec(kZoom, stmt, 0)
		if err != nil {
			return 0, err
		}
		var ids []int64
		var texts []string
		for _, zr := range res.ZoomAnnotations {
			for _, a := range zr.Annotations {
				ids = append(ids, int64(a.ID))
				texts = append(texts, a.Text)
			}
		}
		if err := s.c.led.checkZoom(bird, ids, texts, want); err != nil {
			return 0, wrong(err)
		}
		return 0, nil
	})
}

// pickZoom draws a bird of a result and one of its non-empty labels
// (label 1 when the bird has none).
func pickZoom(g *gen, r result) (bird, label, count int) {
	birds := make([]int, 0, len(r.labels))
	for b := range r.labels {
		birds = append(birds, b)
	}
	sort.Ints(birds)
	bird = birds[g.r.Intn(len(birds))]
	lc := r.labels[bird]
	var nonEmpty []int
	for i, n := range lc {
		if n > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	if len(nonEmpty) == 0 {
		return bird, 1, 0
	}
	i := nonEmpty[g.r.Intn(len(nonEmpty))]
	return bird, i + 1, int(lc[i])
}

// nearZoom zooms into one of the three newest range results: a zoom-in
// cache hit unless the cache dropped it. Before the first range result it
// takes the newest wide ones, so every ZOOMIN drawn is issued.
func (s *session) nearZoom() {
	recent := s.ranges
	if len(recent) == 0 {
		recent = s.wides
	}
	n := len(recent)
	s.zoom(recent[n-1-s.g.r.Intn(min(3, n))])
}

// farZoom zooms into the oldest wide result not zoomed most recently; wide
// results cycle, so each is re-referenced only after all the others.
func (s *session) farZoom() {
	if len(s.wides) == 0 {
		return
	}
	r := s.wides[s.far%len(s.wides)]
	s.far++
	s.zoom(r)
}

// annotation draws one annotation on the given birds.
func (s *session) annotation(birds []int) (engine.AnnotationRequest, annRec) {
	cl := s.g.class()
	txt := s.g.text(cl)
	req := engine.AnnotationRequest{Text: txt, Author: s.g.author(), Table: "birds", Where: eqID(birds[0])}
	if len(birds) > 1 {
		req.Where = idRange(birds[0], birds[len(birds)-1]+1)
	}
	return req, annRec{birds: birds, class: cl, text: txt}
}

func addAnnotationSQL(text, author string, bird int) string {
	return fmt.Sprintf("ADD ANNOTATION '%s' AUTHOR '%s' ON birds WHERE id = %d", text, author, bird)
}

// parseAnnotationID reads the id out of "annotation 123 attached to 1 tuple(s)".
func parseAnnotationID(msg string) (int64, int, error) {
	var id int64
	var n int
	if _, err := fmt.Sscanf(msg, "annotation %d attached to %d tuple(s)", &id, &n); err != nil {
		return 0, 0, fmt.Errorf("annotation reply %q: %v", msg, err)
	}
	return id, n, nil
}

// annotate writes one annotation on one bird with ADD ANNOTATION.
func (s *session) annotate(bird int) {
	req, rec := s.annotation([]int{bird})
	s.do(kAnnotate, func() (int, error) {
		s.c.led.sending(rec.birds)
		res, err := s.exec(kAnnotate, addAnnotationSQL(req.Text, req.Author, bird), 1)
		if err != nil {
			return 0, err
		}
		id, n, err := parseAnnotationID(res.Message)
		if err != nil {
			return 0, wrong(err)
		}
		if n != 1 {
			return 0, wrong(fmt.Errorf("annotation %d attached to %d tuples, want 1", id, n))
		}
		s.c.led.acknowledged(id, rec.birds, rec.class, rec.text)
		return 1, nil
	})
}

// batch writes n annotations with AnnotateBatch. targets draws each
// annotation's birds.
func (s *session) batch(n int, targets func() []int) {
	reqs := make([]engine.AnnotationRequest, n)
	recs := make([]annRec, n)
	attach := 0
	for i := range reqs {
		reqs[i], recs[i] = s.annotation(targets())
		attach += len(recs[i].birds)
	}
	s.do(kBatch, func() (int, error) {
		for _, r := range recs {
			s.c.led.sending(r.birds)
		}
		var fsync0 time.Duration
		if s.lay != nil {
			fsync0 = s.lay.fsyncTotal(s.db())
		}
		start := time.Now()
		ids, got, err := s.db().AnnotateBatch(reqs)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if s.lay != nil {
			// AnnotateBatch has no trace: its wall less its fsync is the
			// summary maintenance and the WAL staging.
			s.lay.maintain(wall-(s.lay.fsyncTotal(s.db())-fsync0), n)
			s.lay.call(kBatch, "", start, wall)
		}
		if len(ids) != n || got != attach {
			return 0, wrong(fmt.Errorf("batch: %d ids and %d attachments, want %d and %d", len(ids), got, n, attach))
		}
		for i, id := range ids {
			s.c.led.acknowledged(int64(id), recs[i].birds, recs[i].class, recs[i].text)
		}
		return n, nil
	})
}

// bulk appends k sightings of random birds with BULK INSERT.
func (s *session) bulk(k int) {
	vals := make([]string, k)
	owners := make([]int, k)
	for i := range vals {
		owners[i] = 1 + s.g.r.Intn(len(s.c.led.birds))
		vals[i] = s.g.sightingValues(s.c.nextSID, owners[i])
		s.c.nextSID++
	}
	s.do(kBulk, func() (int, error) {
		res, err := s.exec(kBulk, "BULK INSERT INTO sightings VALUES "+strings.Join(vals, ", "), 0)
		if err != nil {
			return 0, err
		}
		if res.Count != k {
			return 0, wrong(fmt.Errorf("bulk insert: %d rows, want %d", res.Count, k))
		}
		s.c.led.addSightings(owners)
		return 0, nil
	})
}

// verify reads every bird and every sighting back after a restart and
// checks the counts against the ledger.
func (s *session) verify() {
	s.do(kVerify, func() (int, error) {
		res, err := s.query(kVerify, "SELECT id FROM birds")
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != len(s.c.led.birds) {
			return 0, wrong(fmt.Errorf("after restart: %d birds, want %d", len(res.Rows), len(s.c.led.birds)))
		}
		for _, row := range res.Rows {
			id := intValue(row.Tuple[0])
			lc, err := rowLabels(row)
			if err != nil {
				return 0, wrong(err)
			}
			n := s.c.led.annCount(id)
			if err := checkLabelSum(id, sum4(lc), n, n); err != nil {
				return 0, wrong(fmt.Errorf("after restart: %v", err))
			}
		}
		res, err = s.query(kVerify, "SELECT sid FROM sightings")
		if err != nil {
			return 0, err
		}
		if want := s.c.led.totalSightings(); len(res.Rows) != want {
			return 0, wrong(fmt.Errorf("after restart: %d sightings, want %d", len(res.Rows), want))
		}
		return 0, nil
	})
}

// wireClient issues operations over TCP through one connection.
type wireClient struct {
	c    *corpus
	cl   *server.Client
	g    *gen
	rec  *recorder
	lay  *layerLog
	ctx  context.Context
	stmt *server.Stmt // prepared point lookup
	last *result      // the client's newest SELECT, for its ZOOMINs
}

func dialWire(c *corpus, addr string, g *gen) (*wireClient, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	w := &wireClient{c: c, cl: cl, g: g, rec: newRecorder(), ctx: context.Background()}
	w.stmt, err = cl.Prepare(w.ctx, "SELECT id, name, sci_name, region, wingspan FROM birds WHERE id = $1")
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return w, nil
}

func (w *wireClient) close() error { return w.cl.Close() }

// send runs one request and, when traced, folds its trace.
func (w *wireClient) send(kind string, anns int, call func() (*server.Response, error)) (*server.Response, error) {
	var fsync0 time.Duration
	if w.lay != nil && anns > 0 {
		fsync0 = w.lay.fsyncTotal(w.c.db)
	}
	start := time.Now()
	resp, err := call()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if w.lay != nil {
		var fsync time.Duration
		if anns > 0 {
			fsync = w.lay.fsyncTotal(w.c.db) - fsync0
		}
		w.lay.statement(w.c.db, kind, resp.TraceID, start, wall, true, anns, fsync)
		if st := resp.StatsDetail; st != nil && !isWrite(kind) {
			w.lay.read(st.Rows, st.OpRows, st.Merges, st.Curates)
		} else if kind == kZoom {
			w.lay.reads++
		}
	}
	return resp, nil
}

// rows checks a SELECT reply: each row's bird and, for a point read, its
// values; each bird's label counts must lie between the annotations
// acknowledged before the request was sent (lo) and those issued by the
// time it returned.
func (w *wireClient) rows(resp *server.Response, lo map[int]int64, point bool) (*result, error) {
	r := &result{qid: resp.QID, labels: make(map[int][4]int64, len(resp.Rows))}
	for _, row := range resp.Rows {
		id := intValue(row.Values[0])
		if point {
			if err := w.c.led.checkRow(id, row.Values); err != nil {
				return nil, wrong(err)
			}
		}
		lc, err := labelCounts(row.Summaries[instance])
		if err != nil {
			return nil, wrong(err)
		}
		l, ok := lo[id]
		if !ok {
			return nil, wrong(fmt.Errorf("reply holds bird %d, which was not asked for", id))
		}
		if err := checkLabelSum(id, sum4(lc), l, w.c.led.sentCount(id)); err != nil {
			return nil, wrong(err)
		}
		r.labels[id] = lc
	}
	return r, nil
}

// point runs a point lookup, prepared or ad hoc.
func (w *wireClient) point(id int, prepared bool) {
	start := time.Now()
	err := func() error {
		lo := map[int]int64{id: w.c.led.annCount(id)}
		resp, err := w.send(kPoint, 0, func() (*server.Response, error) {
			if prepared {
				return w.stmt.Exec(w.ctx, types.NewInt(int64(id)))
			}
			return w.cl.Do(w.ctx, pointSQL(id))
		})
		if err != nil {
			return err
		}
		if len(resp.Rows) != 1 {
			return wrong(fmt.Errorf("point %d: %d rows", id, len(resp.Rows)))
		}
		r, err := w.rows(resp, lo, true)
		if err != nil {
			return err
		}
		w.last = r
		return nil
	}()
	w.rec.record(kPoint, time.Since(start), 0, err)
}

// rangeRead runs an ad hoc range SELECT.
func (w *wireClient) rangeRead(lo, hi int) {
	start := time.Now()
	err := func() error {
		before := make(map[int]int64, hi-lo)
		for id := lo; id < hi; id++ {
			before[id] = w.c.led.annCount(id)
		}
		resp, err := w.send(kRange, 0, func() (*server.Response, error) { return w.cl.Do(w.ctx, rangeSQL(lo, hi)) })
		if err != nil {
			return err
		}
		r, err := w.rows(resp, before, false)
		if err != nil {
			return err
		}
		ids := make([]int, 0, len(resp.Rows))
		for id := range r.labels {
			ids = append(ids, id)
		}
		if err := checkRange(lo, hi, ids); err != nil {
			return wrong(err)
		}
		w.last = r
		return nil
	}()
	w.rec.record(kRange, time.Since(start), 0, err)
}

// zoomed is one ZOOMIN reply kept for checking once every write is
// acknowledged: a concurrent writer may have made an annotation visible
// before its acknowledgement reached the ledger.
type zoomed struct {
	bird  int
	ids   []int64
	texts []string
}

// zoom runs a ZOOMIN on the client's newest result. The client has one:
// its first request is a point lookup (see rig.warm).
func (w *wireClient) zoom(pending *[]zoomed) {
	bird, label, _ := pickZoom(w.g, *w.last)
	start := time.Now()
	err := func() error {
		stmt := fmt.Sprintf("ZOOMIN REFERENCE QID %d WHERE id = %d ON %s INDEX %d", w.last.qid, bird, instance, label)
		resp, err := w.send(kZoom, 0, func() (*server.Response, error) { return w.cl.Do(w.ctx, stmt) })
		if err != nil {
			return err
		}
		z := zoomed{bird: bird}
		for _, row := range resp.Rows {
			z.ids = append(z.ids, row.Values[0].Int())
			z.texts = append(z.texts, row.Values[3].Str())
		}
		*pending = append(*pending, z)
		return nil
	}()
	w.rec.record(kZoom, time.Since(start), 0, err)
}

// annotate writes one annotation with ADD ANNOTATION.
func (w *wireClient) annotate(bird int) {
	cl := w.g.class()
	txt := w.g.text(cl)
	stmt := addAnnotationSQL(txt, w.g.author(), bird)
	start := time.Now()
	err := func() error {
		w.c.led.sending([]int{bird})
		resp, err := w.send(kAnnotate, 1, func() (*server.Response, error) { return w.cl.Do(w.ctx, stmt) })
		if err != nil {
			return err
		}
		id, n, err := parseAnnotationID(resp.Message)
		if err != nil {
			return wrong(err)
		}
		if n != 1 {
			return wrong(fmt.Errorf("annotation %d attached to %d tuples, want 1", id, n))
		}
		w.c.led.acknowledged(id, []int{bird}, cl, txt)
		return nil
	}()
	w.rec.record(kAnnotate, time.Since(start), 1, err)
}

// insert writes one sighting with a durable INSERT.
func (w *wireClient) insert(sid, bird int) {
	stmt := "INSERT INTO sightings VALUES " + w.g.sightingValues(sid, bird)
	start := time.Now()
	err := func() error {
		resp, err := w.send(kInsert, 0, func() (*server.Response, error) { return w.cl.Do(w.ctx, stmt) })
		if err != nil {
			return err
		}
		if !strings.HasPrefix(resp.Message, "1 row(s) inserted") {
			return wrong(fmt.Errorf("insert reply %q", resp.Message))
		}
		w.c.led.addSightings([]int{bird})
		return nil
	}()
	w.rec.record(kInsert, time.Since(start), 0, err)
}
