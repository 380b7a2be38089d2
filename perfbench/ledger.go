package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"insightnotes/internal/types"
)

// birdRow is one row of the birds table as the benchmark inserted it.
type birdRow struct {
	id       int
	name     string
	sciName  string
	region   string
	wingspan string // the literal inserted, two decimals
}

// values renders the row as the engine returns it for
// SELECT id, name, sci_name, region, wingspan.
func (b birdRow) values() []types.Value {
	w, _ := strconv.ParseFloat(b.wingspan, 64)
	return []types.Value{
		types.NewInt(int64(b.id)), types.NewString(b.name), types.NewString(b.sciName),
		types.NewString(b.region), types.NewFloat(w),
	}
}

// annRec is one acknowledged annotation: the birds it was attached to and
// the class its text was generated from.
type annRec struct {
	birds []int
	class string
	text  string
}

// ledger is the benchmark's own record of everything it wrote and had
// acknowledged. Every answer the program gives is checked against it.
//
// Birds are numbered 1..len(birds) and never change after set-up. Per-bird
// annotation counts are kept twice: sent counts an annotation as soon as
// the statement that writes it is issued, acked once it returned durable.
// A concurrent read may see any count between the two.
type ledger struct {
	birds []birdRow

	mu        sync.Mutex
	sightings []int // sightings per bird, index id-1
	sighTotal int
	anns      map[int64]annRec

	sent, acked []atomic.Int64
}

func newLedger(birds []birdRow) *ledger {
	return &ledger{
		birds:     birds,
		sightings: make([]int, len(birds)),
		anns:      make(map[int64]annRec),
		sent:      make([]atomic.Int64, len(birds)),
		acked:     make([]atomic.Int64, len(birds)),
	}
}

func (l *ledger) addSightings(birdIDs []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range birdIDs {
		l.sightings[b-1]++
	}
	l.sighTotal += len(birdIDs)
}

// sending records that an annotation on birds is about to be written.
func (l *ledger) sending(birds []int) {
	for _, b := range birds {
		l.sent[b-1].Add(1)
	}
}

// acknowledged records an annotation the program acknowledged as durable.
func (l *ledger) acknowledged(id int64, birds []int, class, text string) {
	l.mu.Lock()
	l.anns[id] = annRec{birds: birds, class: class, text: text}
	l.mu.Unlock()
	for _, b := range birds {
		l.acked[b-1].Add(1)
	}
}

// annCount is the number of acknowledged annotations on a bird.
func (l *ledger) annCount(bird int) int64 { return l.acked[bird-1].Load() }

// sentCount is the number of annotations on a bird whose write was issued.
func (l *ledger) sentCount(bird int) int64 { return l.sent[bird-1].Load() }

func (l *ledger) totalSightings() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sighTotal
}

// pairs is the number of (bird, sighting) pairs for birds lo <= id < hi.
func (l *ledger) pairs(lo, hi int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for id := lo; id < hi; id++ {
		n += l.sightings[id-1]
	}
	return n
}

// checkRow fails unless got is exactly bird id's row.
func (l *ledger) checkRow(id int, got []types.Value) error {
	if id < 1 || id > len(l.birds) {
		return fmt.Errorf("point: bird %d is not in the ledger", id)
	}
	want := l.birds[id-1].values()
	if len(got) != len(want) {
		return fmt.Errorf("point: bird %d: got %d columns, want %d", id, len(got), len(want))
	}
	for i := range want {
		if got[i].Kind() != want[i].Kind() || types.Compare(got[i], want[i]) != 0 {
			return fmt.Errorf("point: bird %d column %d: got %v, want %v", id, i, got[i], want[i])
		}
	}
	return nil
}

// checkRange fails unless ids are exactly lo..hi-1, in any order.
func checkRange(lo, hi int, ids []int) error {
	got := append([]int(nil), ids...)
	sort.Ints(got)
	if len(got) != hi-lo {
		return fmt.Errorf("range [%d,%d): got %d rows, want %d", lo, hi, len(got), hi-lo)
	}
	for i, id := range got {
		if id != lo+i {
			return fmt.Errorf("range [%d,%d): got id %d at position %d", lo, hi, id, i)
		}
	}
	return nil
}

// checkJoin fails unless a join over birds lo <= id < hi returned the
// ledger's number of (bird, sighting) pairs.
func (l *ledger) checkJoin(lo, hi, got int) error {
	if want := l.pairs(lo, hi); got != want {
		return fmt.Errorf("join [%d,%d): got %d pairs, want %d", lo, hi, got, want)
	}
	return nil
}

// checkLabelSum fails unless a bird's ClassBird1 label counts sum to a
// count within [lo, hi]: the annotations acknowledged before the read was
// sent, and those issued by the time it returned. Without concurrent
// writers lo == hi.
func checkLabelSum(bird int, sum, lo, hi int64) error {
	if sum < lo || sum > hi {
		if lo == hi {
			return fmt.Errorf("bird %d: label counts sum to %d, ledger holds %d annotations", bird, sum, lo)
		}
		return fmt.Errorf("bird %d: label counts sum to %d, outside [%d, %d]", bird, sum, lo, hi)
	}
	return nil
}

// checkZoom fails if a ZOOMIN on bird returned an annotation the ledger did
// not attach to that bird, or, when want >= 0, a number of annotations
// other than want (the label count the referenced result reported).
func (l *ledger) checkZoom(bird int, annIDs []int64, texts []string, want int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, id := range annIDs {
		rec, ok := l.anns[id]
		if !ok {
			return fmt.Errorf("zoom: bird %d: annotation %d is not in the ledger", bird, id)
		}
		attached := false
		for _, b := range rec.birds {
			attached = attached || b == bird
		}
		if !attached {
			return fmt.Errorf("zoom: bird %d: annotation %d belongs to birds %v", bird, id, rec.birds)
		}
		if texts != nil && texts[i] != rec.text {
			return fmt.Errorf("zoom: bird %d: annotation %d text differs from the ledger", bird, id)
		}
	}
	if want >= 0 && len(annIDs) != want {
		return fmt.Errorf("zoom: bird %d: got %d annotations, the result reported %d", bird, len(annIDs), want)
	}
	return nil
}
