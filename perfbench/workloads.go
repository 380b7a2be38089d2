package main

import "math/rand"

// workload is one traffic mix: the corpus it runs on, the warm-up, one
// round of the timed mix, and the probes of the kinds its mix lacks, so
// that every workload reports every end-to-end metric.
type workload struct {
	name string
	spec corpusSpec
	// warm builds per-run state (targets, history) and warms the caches.
	warm  func(s *session)
	round func(s *session)
	// perSecond is how many rounds the timed phase runs per second of
	// --seconds. The count is fixed, not timed, so every seed ends in the
	// same state; it is sized to take about that long on the reference
	// host.
	perSecond int
	probe     func(s *session)
	// repeats is how often the epilogue checkpoints and restarts; the
	// medians are shown. Each is a job of a fraction of a second on the
	// smaller corpora and of seconds on firehose's skewed state.
	repeats int
	// concurrent marks the mix that runs its own clients over TCP.
	concurrent bool
}

const (
	rangeWidth = 20  // rows of a range SELECT
	wideWidth  = 200 // rows of a wide SELECT
	joinWidth  = 10  // birds of a join
	wides      = 64  // wide SELECTs issued in the browse warm-up
	feed       = 200 // sightings of a firehose BULK INSERT
	// browseWarm is the browse warm-up's rounds. The wide results leave
	// the zoom-in cache just full; every SELECT then puts its result and
	// evicts, and the cache settles at about 1,100 entries after 25 to 50
	// rounds, from where its size stays within 10%. Timed any earlier, the
	// phase would measure the settling: point SELECTs slow down as the cache
	// grows, since every eviction scans all entries.
	browseWarm = 50
	// firehoseWarm is the firehose warm-up's rounds. A round writes about
	// 30 KiB to the WAL, so from the empty WAL set-up leaves, the
	// size-triggered checkpoint (at 8 MiB) fires once in the 400 rounds of
	// a --seconds 20 run, at about round 270, on every seed.
	firehoseWarm = 3
)

var workloads = []*workload{
	// A read-only analyst session: sql, plan, exec, summary, storage and
	// zoomin do the work, wal none. Nothing is written while it reads.
	{
		name: "browse",
		spec: corpusSpec{birds: 2000, sightingsPerBird: 2, annsPerBird: 4},
		warm: func(s *session) {
			n := len(s.c.led.birds)
			// The wide results are the far zoom targets; together they are
			// larger than the zoom-in cache budget (4 MiB by default).
			for i := 0; i < wides; i++ {
				lo := 1 + s.g.r.Intn(n-wideWidth)
				s.rangeRead(kWide, lo, lo+wideWidth)
			}
			for i := 0; i < browseWarm; i++ {
				browseRound(s)
			}
		},
		round:     browseRound,
		perSecond: 5,
		repeats:   3,
	},
	// Curator ingest: wal, summary maintenance and annotation storage do
	// the work, on skewed targets.
	{
		name: "firehose",
		spec: corpusSpec{birds: 1000, sightingsPerBird: 2, annsPerBird: 2},
		warm: func(s *session) {
			s.zipf = rand.NewZipf(s.g.r, 1.2, 10, uint64(len(s.c.led.birds)-1))
			for i := 0; i < firehoseWarm; i++ {
				firehoseRound(s)
			}
		},
		round:     firehoseRound,
		perSecond: 20,
		repeats:   1,
		probe: func(s *session) {
			n := len(s.c.led.birds)
			for _, k := range deck(s.g, share{kRange, 150}, share{kJoin, 100}) {
				if k == kRange {
					lo := 1 + s.g.r.Intn(n-rangeWidth)
					s.rangeRead(kRange, lo, lo+rangeWidth)
					s.nearZoom()
				} else {
					lo := 1 + s.g.r.Intn(n-joinWidth)
					s.join(lo, lo+joinWidth)
				}
			}
		},
	},
	// A reader and a writer over TCP: the server, statement-lock contention
	// and plan-cache hits do the work. A round is mixedReads reader rounds
	// and mixedWrites writer rounds run at once (see rig.round).
	{
		name:      "mixed",
		spec:      corpusSpec{birds: 500, sightingsPerBird: 2, annsPerBird: 4},
		perSecond: 11,
		repeats:   7,
		probe: func(s *session) {
			n := len(s.c.led.birds)
			for i := 0; i < 100; i++ {
				lo := 1 + s.g.r.Intn(n-joinWidth)
				s.join(lo, lo+joinWidth)
			}
		},
		concurrent: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// share is how many operations of a kind one round holds.
type share struct {
	kind string
	n    int
}

// deck returns one round's operations in a seeded random order.
func deck(g *gen, mix ...share) []string {
	var out []string
	for _, s := range mix {
		for k := 0; k < s.n; k++ {
			out = append(out, s.kind)
		}
	}
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

const (
	nearZoom = "near_zoom"
	farZoom  = "far_zoom"
)

// browseRound is 50 reads: 26 point, 8 range, 4 join and 12 ZOOMIN, two
// thirds of them on one of the three newest range results and one third on
// the oldest wide result.
func browseRound(s *session) {
	n := len(s.c.led.birds)
	for _, k := range deck(s.g, share{kPoint, 26}, share{kRange, 8}, share{kJoin, 4}, share{nearZoom, 8}, share{farZoom, 4}) {
		switch k {
		case kPoint:
			s.point(1 + s.g.r.Intn(n))
		case kRange:
			lo := 1 + s.g.r.Intn(n-rangeWidth)
			s.rangeRead(kRange, lo, lo+rangeWidth)
		case kJoin:
			lo := 1 + s.g.r.Intn(n-joinWidth)
			s.join(lo, lo+joinWidth)
		case nearZoom:
			s.nearZoom()
		case farZoom:
			s.farZoom()
		}
	}
}

// firehoseRound is 21 operations: 4 AnnotateBatch calls of 8 annotations
// (one in eight spanning three neighbouring tuples), 8 ADD ANNOTATION, one
// BULK INSERT of 200 sightings, and 8 point read-backs of the tuple written
// last. Targets follow a Zipf-Mandelbrot law over the tuples, P(k) ∝
// (10+k)^-1.2: over 1,000 tuples the hottest draws 3.3% of the
// annotations, 33 times its uniform share.
func firehoseRound(s *session) {
	n := len(s.c.led.birds)
	hot := func() int { return 1 + int(s.zipf.Uint64()) }
	targets := func() []int {
		b := hot()
		if s.g.r.Intn(8) == 0 {
			b = min(b, n-2)
			return []int{b, b + 1, b + 2}
		}
		return []int{b}
	}
	last := hot()
	for _, k := range deck(s.g, share{kBatch, 4}, share{kAnnotate, 8}, share{kBulk, 1}, share{kPoint, 8}) {
		switch k {
		case kBatch:
			s.batch(8, targets)
		case kAnnotate:
			last = hot()
			s.annotate(last)
		case kBulk:
			s.bulk(feed)
		case kPoint:
			s.point(last)
		}
	}
}
