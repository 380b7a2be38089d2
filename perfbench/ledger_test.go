package main

import (
	"strings"
	"testing"

	"insightnotes/internal/types"
)

func testLedger() *ledger {
	g := newGen(7)
	birds := make([]birdRow, 30)
	for i := range birds {
		birds[i] = g.bird(i + 1)
	}
	l := newLedger(birds)
	l.addSightings([]int{1, 1, 2, 3})
	l.sending([]int{1})
	l.acknowledged(101, []int{1}, "Behavior", "feeding near lake")
	l.sending([]int{1, 2})
	l.acknowledged(102, []int{1, 2}, "Disease", "lesions and mites")
	l.sending([]int{3})
	l.acknowledged(103, []int{3}, "Other", "photo uploaded")
	return l
}

func TestLedgerAcceptsRightAnswers(t *testing.T) {
	l := testLedger()
	if err := l.checkRow(2, l.birds[1].values()); err != nil {
		t.Errorf("right row rejected: %v", err)
	}
	if err := checkRange(5, 9, []int{8, 5, 7, 6}); err != nil {
		t.Errorf("right range rejected: %v", err)
	}
	if err := l.checkJoin(1, 3, 3); err != nil {
		t.Errorf("right join rejected: %v", err)
	}
	if err := checkLabelSum(1, 2, l.annCount(1), l.sentCount(1)); err != nil {
		t.Errorf("right count rejected: %v", err)
	}
	if err := l.checkZoom(2, []int64{102}, []string{"lesions and mites"}, 1); err != nil {
		t.Errorf("right zoom rejected: %v", err)
	}
}

func TestLedgerRejectsWrongRow(t *testing.T) {
	l := testLedger()
	row := l.birds[1].values()
	row[3] = types.NewString(row[3].Str() + "x")
	if err := l.checkRow(2, row); err == nil {
		t.Error("row with a wrong region accepted")
	}
	// The same values with an integer where the float wingspan belongs.
	row = l.birds[1].values()
	row[4] = types.NewInt(int64(row[4].Float()))
	if err := l.checkRow(2, row); err == nil {
		t.Error("row with a wrong column kind accepted")
	}
	if err := l.checkRow(3, l.birds[1].values()); err == nil {
		t.Error("another bird's row accepted")
	}
	if err := checkRange(5, 9, []int{5, 6, 7, 10}); err == nil {
		t.Error("range with a foreign id accepted")
	}
	if err := checkRange(5, 9, []int{5, 6, 7}); err == nil {
		t.Error("range with a missing id accepted")
	}
}

func TestLedgerRejectsWrongCount(t *testing.T) {
	l := testLedger()
	if err := checkLabelSum(1, 3, l.annCount(1), l.sentCount(1)); err == nil {
		t.Error("label counts above the ledger accepted")
	}
	if err := checkLabelSum(1, 1, l.annCount(1), l.sentCount(1)); err == nil {
		t.Error("label counts below the ledger accepted")
	}
	if err := l.checkJoin(1, 3, 4); err == nil {
		t.Error("join with an extra pair accepted")
	}
	// A write in flight: a concurrent read may see it, but no more.
	l.sending([]int{1})
	if err := checkLabelSum(1, 3, l.annCount(1), l.sentCount(1)); err != nil {
		t.Errorf("in-flight annotation rejected: %v", err)
	}
	if err := checkLabelSum(1, 4, l.annCount(1), l.sentCount(1)); err == nil {
		t.Error("label counts above the issued writes accepted")
	}
}

func TestLedgerRejectsForeignZoomedAnnotation(t *testing.T) {
	l := testLedger()
	if err := l.checkZoom(1, []int64{101, 103}, nil, -1); err == nil {
		t.Error("annotation of bird 3 accepted on bird 1")
	}
	if err := l.checkZoom(1, []int64{101, 999}, nil, -1); err == nil {
		t.Error("annotation unknown to the ledger accepted")
	}
	if err := l.checkZoom(1, []int64{101}, []string{"forged text"}, -1); err == nil {
		t.Error("annotation with another text accepted")
	}
	if err := l.checkZoom(1, []int64{101}, nil, 2); err == nil {
		t.Error("zoom with fewer annotations than the reported count accepted")
	}
}

func TestLabelCounts(t *testing.T) {
	lc, err := labelCounts("ClassBird1 [(Behavior, 3), (Disease, 0), (Anatomy, 12), (Other, 1)]")
	if err != nil || lc != [4]int64{3, 0, 12, 1} || sum4(lc) != 16 {
		t.Errorf("labelCounts = %v, %v", lc, err)
	}
	if lc, err := labelCounts(""); err != nil || sum4(lc) != 0 {
		t.Errorf("empty rendering = %v, %v", lc, err)
	}
	for _, bad := range []string{
		"ClassBird1 [(Behavior, 3), (Disease, 0)]",
		"ClassBird1 [(Disease, 3), (Behavior, 0), (Anatomy, 1), (Other, 1)]",
		"ClassBird1 [(Behavior, x), (Disease, 0), (Anatomy, 1), (Other, 1)]",
	} {
		if _, err := labelCounts(bad); err == nil || !strings.Contains(err.Error(), "summary") {
			t.Errorf("labelCounts(%q) accepted", bad)
		}
	}
}
