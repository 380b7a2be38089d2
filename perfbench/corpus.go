package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// The corpus is the benchmark's own: an ornithological table of birds, a
// table of sightings, and free-text annotations drawn from four classes.
// It is generated here rather than by the program so that the inputs stay
// the same when the program changes.

var classes = []string{"Behavior", "Disease", "Anatomy", "Other"}

var vocab = map[string][]string{
	"Behavior": {"feeding", "stonewort", "foraging", "migrating", "nesting", "flock",
		"courtship", "diving", "grazing", "roosting", "territorial", "preening"},
	"Disease": {"influenza", "infection", "lesions", "parasite", "mites", "virus",
		"lethargic", "sick", "outbreak", "botulism", "fungal", "symptoms"},
	"Anatomy": {"wingspan", "plumage", "bill", "neck", "tail", "weight",
		"feathers", "molt", "webbed", "crest", "talons", "measurement"},
	"Other": {"photo", "camera", "duplicate", "volunteer", "record", "survey",
		"checklist", "uploaded", "archive", "misc", "team", "note"},
}

var filler = []string{"observed", "near", "lake", "shore", "morning", "specimen",
	"adult", "juvenile", "pair", "site", "today", "reported", "seen", "area"}

var species = [][2]string{
	{"Swan Goose", "Anser cygnoides"}, {"Mute Swan", "Cygnus olor"},
	{"Whooper Swan", "Cygnus cygnus"}, {"Tundra Swan", "Cygnus columbianus"},
	{"Canada Goose", "Branta canadensis"}, {"Snow Goose", "Anser caerulescens"},
	{"Mallard", "Anas platyrhynchos"}, {"Northern Pintail", "Anas acuta"},
	{"Common Loon", "Gavia immer"}, {"Great Blue Heron", "Ardea herodias"},
	{"Bald Eagle", "Haliaeetus leucocephalus"}, {"Peregrine Falcon", "Falco peregrinus"},
	{"American Robin", "Turdus migratorius"}, {"Blue Jay", "Cyanocitta cristata"},
	{"Northern Cardinal", "Cardinalis cardinalis"}, {"Ruby-throated Hummingbird", "Archilochus colubris"},
}

var regions = []string{"northeast", "southeast", "midwest", "northwest", "southwest",
	"great lakes", "gulf coast", "mountain west"}

// gen draws every input of a run from one seeded source.
type gen struct{ r *rand.Rand }

func newGen(seed int64) *gen { return &gen{r: rand.New(rand.NewSource(seed))} }

// class draws a class with a mild skew: class i has weight 4-i.
func (g *gen) class() string {
	r := g.r.Intn(10)
	for i := range classes {
		r -= len(classes) - i
		if r < 0 {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// text is one annotation body of a class: 12 to 27 words mixing the class
// vocabulary with shared filler.
func (g *gen) text(class string) string {
	pool := vocab[class]
	n := 12 + g.r.Intn(16)
	words := make([]string, n)
	for i := range words {
		if g.r.Intn(10) < 6 {
			words[i] = pool[g.r.Intn(len(pool))]
		} else {
			words[i] = filler[g.r.Intn(len(filler))]
		}
	}
	return strings.Join(words, " ")
}

func (g *gen) author() string { return fmt.Sprintf("watcher%03d", g.r.Intn(500)) }

func (g *gen) bird(id int) birdRow {
	s := species[g.r.Intn(len(species))]
	return birdRow{
		id:       id,
		name:     s[0],
		sciName:  s[1],
		region:   regions[g.r.Intn(len(regions))],
		wingspan: fmt.Sprintf("%.2f", 0.3+float64(g.r.Intn(250))/100),
	}
}

// sightingValues renders one sightings row (sid, bird_id, region, cnt).
func (g *gen) sightingValues(sid, bird int) string {
	return fmt.Sprintf("(%d, %d, '%s', %d)", sid, bird, regions[g.r.Intn(len(regions))], g.r.Intn(40)+1)
}

// corpusSpec sizes one workload's corpus.
type corpusSpec struct {
	birds            int
	sightingsPerBird int
	annsPerBird      int
}

// eqCol is the predicate col = n.
func eqCol(col string, n int) sql.Expr {
	return &sql.BinaryExpr{Op: "=", L: &sql.ColRef{Name: col}, R: &sql.Literal{Val: types.NewInt(int64(n))}}
}

// eqID is the predicate id = n over the birds table.
func eqID(n int) sql.Expr { return eqCol("id", n) }

// idRange is the predicate id >= lo AND id < hi.
func idRange(lo, hi int) sql.Expr {
	return &sql.BinaryExpr{Op: "AND",
		L: &sql.BinaryExpr{Op: ">=", L: &sql.ColRef{Name: "id"}, R: &sql.Literal{Val: types.NewInt(int64(lo))}},
		R: &sql.BinaryExpr{Op: "<", L: &sql.ColRef{Name: "id"}, R: &sql.Literal{Val: types.NewInt(int64(hi))}},
	}
}

// corpus is a loaded engine with the ledger of what was loaded.
type corpus struct {
	db       *engine.DB
	led      *ledger
	dir      string // data dir
	cacheDir string
	nextSID  int // next free sighting id
	opens    int // engine opens so far, for fresh cache dirs
	cfg      engine.Config
}

// open (re)opens the durable engine on c.dir with a cache dir of its own
// under the run's temp dir, so nothing is left outside it.
func (c *corpus) open() (engine.RecoveryInfo, error) {
	c.opens++
	cfg := c.cfg
	cfg.CacheDir = filepath.Join(c.cacheDir, fmt.Sprintf("open-%d", c.opens))
	db, info, err := engine.OpenDurable(cfg, engine.DurabilityOptions{Dir: c.dir})
	if err != nil {
		return info, fmt.Errorf("open %s: %w", c.dir, err)
	}
	c.db = db
	return info, nil
}

// trainingSet is the classifier's labelled corpus, drawn from its own
// generator so it does not depend on the corpus size.
func trainingSet(seed int64) string {
	g := newGen(seed ^ 0x5eed)
	var parts []string
	for _, cl := range classes {
		for i := 0; i < 8; i++ {
			parts = append(parts, fmt.Sprintf("('%s', '%s')", g.text(cl), cl))
		}
	}
	return strings.Join(parts, ", ")
}

// load builds the corpus in a fresh data dir: open the durable engine,
// bulk-load birds and sightings, index both, create, train and link the
// ClassBird1 classifier to both, attach the annotations in batches, and
// checkpoint.
// The same seed and spec give the same corpus and ledger.
func load(root string, cfg engine.Config, spec corpusSpec, seed int64) (*corpus, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{dir: filepath.Join(root, "data"), cacheDir: filepath.Join(root, "cache"), cfg: cfg}
	if _, err := c.open(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	g := newGen(seed)
	birds := make([]birdRow, spec.birds)
	for i := range birds {
		birds[i] = g.bird(i + 1)
	}
	c.led = newLedger(birds)
	exec := func(stmt string) error {
		if _, err := c.db.Exec(ctx, stmt); err != nil {
			return fmt.Errorf("set-up %.60q: %w", stmt, err)
		}
		return nil
	}
	for _, s := range []string{
		"CREATE TABLE birds (id INT, name TEXT, sci_name TEXT, region TEXT, wingspan FLOAT)",
		"CREATE TABLE sightings (sid INT, bird_id INT, region TEXT, cnt INT)",
	} {
		if err := exec(s); err != nil {
			return nil, err
		}
	}
	const chunk = 500
	for lo := 0; lo < len(birds); lo += chunk {
		var vals []string
		for _, b := range birds[lo:min(lo+chunk, len(birds))] {
			vals = append(vals, fmt.Sprintf("(%d, '%s', '%s', '%s', %s)", b.id, b.name, b.sciName, b.region, b.wingspan))
		}
		if err := exec("BULK INSERT INTO birds VALUES " + strings.Join(vals, ", ")); err != nil {
			return nil, err
		}
	}
	c.nextSID = 1
	total := spec.birds * spec.sightingsPerBird
	for lo := 0; lo < total; lo += chunk {
		var vals []string
		var owners []int
		for i := lo; i < min(lo+chunk, total); i++ {
			b := i%spec.birds + 1
			vals = append(vals, g.sightingValues(c.nextSID, b))
			owners = append(owners, b)
			c.nextSID++
		}
		if err := exec("BULK INSERT INTO sightings VALUES " + strings.Join(vals, ", ")); err != nil {
			return nil, err
		}
		c.led.addSightings(owners)
	}
	for _, s := range []string{
		"CREATE INDEX ON birds (id)",
		"CREATE INDEX ON sightings (bird_id)",
		"CREATE INDEX ON sightings (sid)",
		"CREATE SUMMARY INSTANCE ClassBird1 TYPE Classifier LABELS ('Behavior', 'Disease', 'Anatomy', 'Other')",
		"TRAIN SUMMARY ClassBird1 " + trainingSet(seed),
		"LINK SUMMARY ClassBird1 TO birds",
		"LINK SUMMARY ClassBird1 TO sightings",
	} {
		if err := exec(s); err != nil {
			return nil, err
		}
	}
	var reqs []engine.AnnotationRequest
	var meta []annRec
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		for _, m := range meta {
			c.led.sending(m.birds)
		}
		ids, _, err := c.db.AnnotateBatch(reqs)
		if err != nil {
			return fmt.Errorf("set-up annotations: %w", err)
		}
		for i, id := range ids {
			c.led.acknowledged(int64(id), meta[i].birds, meta[i].class, meta[i].text)
		}
		reqs, meta = reqs[:0], meta[:0]
		return nil
	}
	for b := 1; b <= spec.birds; b++ {
		for k := 0; k < spec.annsPerBird; k++ {
			cl := g.class()
			txt := g.text(cl)
			reqs = append(reqs, engine.AnnotationRequest{Text: txt, Author: g.author(), Table: "birds", Where: eqID(b)})
			meta = append(meta, annRec{birds: []int{b}, class: cl, text: txt})
			if len(reqs) == 256 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	// Every other sighting carries one annotation, so a join merges the
	// summaries of both sides.
	for sid := 1; sid < c.nextSID; sid += 2 {
		cl := g.class()
		txt := g.text(cl)
		reqs = append(reqs, engine.AnnotationRequest{Text: txt, Author: g.author(), Table: "sightings", Where: eqCol("sid", sid)})
		meta = append(meta, annRec{class: cl, text: txt})
		if len(reqs) == 256 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if _, err := c.db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("set-up checkpoint: %w", err)
	}
	return c, nil
}

// timedLoad runs load and reports its wall time.
func timedLoad(root string, cfg engine.Config, spec corpusSpec, seed int64) (*corpus, time.Duration, error) {
	start := time.Now()
	c, err := load(root, cfg, spec, seed)
	return c, time.Since(start), err
}

// close shuts the engine down; the data dir stays.
func (c *corpus) close() error {
	if c.db == nil {
		return nil
	}
	err := c.db.Close()
	c.db = nil
	return err
}
