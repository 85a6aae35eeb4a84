// Package vulndb implements the paper's Figure 1: the custom SQL schema
// into which the collection program inserts parsed NVD feeds, "deployed
// ... to do the aggregation of vulnerabilities by affected products and
// versions".
//
// The schema runs on internal/relstore and holds everything the analyses
// need; entries can be loaded from any source of cve.Entry values and
// extracted back losslessly enough for internal/core to reproduce every
// table. SQL helpers demonstrate the aggregation queries of §III run on
// the embedded engine.
package vulndb

import (
	"fmt"
	"sort"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
	"osdiversity/internal/osmap"
	"osdiversity/internal/relstore"
)

// schema is the Figure 1 DDL, adapted to the relstore dialect. The
// cvss, vulnerability_type and security_protection satellites mirror the
// paper's layout.
var schema = []string{
	`CREATE TABLE os (
		id INTEGER PRIMARY KEY,
		name TEXT,
		family TEXT,
		first_release INTEGER)`,
	`CREATE TABLE vulnerability (
		id INTEGER PRIMARY KEY,
		name TEXT,
		year INTEGER,
		published TIMESTAMP,
		summary TEXT)`,
	`CREATE TABLE vulnerability_type (
		vuln_id INTEGER,
		type TEXT)`,
	`CREATE TABLE security_protection (
		vuln_id INTEGER,
		validity TEXT)`,
	`CREATE TABLE cvss (
		vuln_id INTEGER,
		access_vector TEXT,
		access_complexity TEXT,
		authentication TEXT,
		conf_impact TEXT,
		integ_impact TEXT,
		avail_impact TEXT,
		score FLOAT,
		remote BOOLEAN)`,
	`CREATE TABLE product (
		id INTEGER PRIMARY KEY,
		part TEXT,
		vendor TEXT,
		name TEXT)`,
	`CREATE TABLE os_vuln (
		os_id INTEGER,
		vuln_id INTEGER,
		version TEXT)`,
	`CREATE TABLE vuln_product (
		vuln_id INTEGER,
		product_id INTEGER,
		version TEXT)`,
	`CREATE INDEX ON os_vuln (vuln_id)`,
	`CREATE INDEX ON os_vuln (os_id)`,
	`CREATE INDEX ON vuln_product (vuln_id)`,
	`CREATE INDEX ON vulnerability (year)`,
}

// DB wraps a relstore database carrying the study schema.
type DB struct {
	store     *relstore.DB
	registry  *osmap.Registry
	osIDs     map[osmap.Distro]int64
	productID map[string]int64
	nextVuln  int64
	nextProd  int64

	// The §III aggregation queries, prepared once per database: the
	// parse and plan happen at Create/Open, every call after binds
	// arguments into the cached plan.
	stCountByOS    *relstore.Stmt
	stSharedCount  *relstore.Stmt
	stSharedMatrix *relstore.Stmt
}

// The aggregation shapes of §III. sharedCountSQL binds OS names as
// typed parameters, so quote-bearing names neither break the query nor
// inject SQL.
const (
	countByOSSQL = `
		SELECT os.name, COUNT(DISTINCT os_vuln.vuln_id) AS n
		FROM os
		JOIN os_vuln ON os.id = os_vuln.os_id
		JOIN security_protection sp ON os_vuln.vuln_id = sp.vuln_id
		WHERE sp.validity = 'Valid'
		GROUP BY os.name`
	sharedCountSQL = `
		SELECT COUNT(DISTINCT x.vuln_id)
		FROM os_vuln x
		JOIN os oa ON x.os_id = oa.id
		JOIN os_vuln y ON x.vuln_id = y.vuln_id
		JOIN os ob ON y.os_id = ob.id
		JOIN security_protection sp ON x.vuln_id = sp.vuln_id
		WHERE oa.name = ? AND ob.name = ? AND sp.validity = 'Valid'`
	sharedMatrixSQL = `
		SELECT oa.name, ob.name, COUNT(DISTINCT x.vuln_id)
		FROM os_vuln x
		JOIN security_protection sp ON x.vuln_id = sp.vuln_id
		JOIN os_vuln y ON x.vuln_id = y.vuln_id
		JOIN os oa ON x.os_id = oa.id
		JOIN os ob ON y.os_id = ob.id
		WHERE sp.validity = 'Valid' AND oa.id < ob.id
		GROUP BY oa.name, ob.name`
)

// prepareStatements compiles the aggregation queries against the live
// schema. Prepared handles survive later DDL and plan-cache flushes by
// recompiling transparently on their next use.
func (db *DB) prepareStatements() error {
	var err error
	if db.stCountByOS, err = db.store.Prepare(countByOSSQL); err != nil {
		return fmt.Errorf("vulndb: prepare count-by-os: %w", err)
	}
	if db.stSharedCount, err = db.store.Prepare(sharedCountSQL); err != nil {
		return fmt.Errorf("vulndb: prepare shared-count: %w", err)
	}
	if db.stSharedMatrix, err = db.store.Prepare(sharedMatrixSQL); err != nil {
		return fmt.Errorf("vulndb: prepare shared-matrix: %w", err)
	}
	return nil
}

// Create builds a fresh database with the schema and the os table
// populated from the paper's 11-distro registry.
func Create() (*DB, error) { return CreateForRegistry(osmap.NewRegistry()) }

// CreateForRegistry builds a fresh database whose os table, clustering
// and ids follow the given registry's universe, so synthetic "modern
// NVD" corpora (osmap.NewSyntheticRegistry) load through the same
// Figure 1 schema. OS ids are assigned 1..n in the registry's
// presentation order, matching core.Study's distro order.
func CreateForRegistry(registry *osmap.Registry) (*DB, error) {
	distros := registry.Distros()
	db := &DB{
		store:     relstore.Open(),
		registry:  registry,
		osIDs:     make(map[osmap.Distro]int64, len(distros)),
		productID: make(map[string]int64),
	}
	for _, ddl := range schema {
		if err := db.store.Exec(ddl); err != nil {
			return nil, fmt.Errorf("vulndb: schema: %w", err)
		}
	}
	for i, d := range distros {
		id := int64(i + 1)
		db.osIDs[d] = id
		err := relstore.InsertRow(db.store, "os",
			[]string{"id", "name", "family", "first_release"},
			[]relstore.Value{
				relstore.Int(id), relstore.Text(d.String()),
				relstore.Text(d.Family().String()), relstore.Int(int64(d.FirstReleaseYear())),
			})
		if err != nil {
			return nil, fmt.Errorf("vulndb: seed os table: %w", err)
		}
	}
	if err := db.prepareStatements(); err != nil {
		return nil, err
	}
	return db, nil
}

// SetParallelism sets the worker count of LoadEntries' digestion and of
// the SQL engine's queries (the join probe pool), as
// core.WithParallelism drives both ingestion and queries of a Study.
// Results are identical at any worker count.
func (db *DB) SetParallelism(n int) { db.store.SetParallelism(n) }

// Store exposes the underlying relational store for ad-hoc SQL.
func (db *DB) Store() *relstore.DB { return db.store }

// Entries reconstructs cve.Entry values from the schema, in insertion
// order. The round trip preserves everything internal/core consumes.
func (db *DB) Entries() ([]*cve.Entry, error) {
	products := make(map[int64]cpe.Name)
	err := relstore.ScanTable(db.store, "product", func(row []relstore.Value) bool {
		part, _ := cpe.ParsePart(row[1].AsText())
		products[row[0].AsInt()] = cpe.Name{Part: part, Vendor: row[2].AsText(), Product: row[3].AsText()}
		return true
	})
	if err != nil {
		return nil, err
	}

	type build struct {
		entry *cve.Entry
		order int64
	}
	byID := make(map[int64]*build)
	var orderedIDs []int64
	err = relstore.ScanTable(db.store, "vulnerability", func(row []relstore.Value) bool {
		id, err := cve.ParseID(row[1].AsText())
		if err != nil {
			return true
		}
		vid := row[0].AsInt()
		byID[vid] = &build{
			entry: &cve.Entry{ID: id, Published: row[3].AsTime(), Summary: row[4].AsText()},
			order: vid,
		}
		orderedIDs = append(orderedIDs, vid)
		return true
	})
	if err != nil {
		return nil, err
	}

	err = relstore.ScanTable(db.store, "cvss", func(row []relstore.Value) bool {
		b, ok := byID[row[0].AsInt()]
		if !ok {
			return true
		}
		vec, err := vectorFromRow(row)
		if err == nil {
			b.entry.CVSS = vec
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	err = relstore.ScanTable(db.store, "vuln_product", func(row []relstore.Value) bool {
		b, ok := byID[row[0].AsInt()]
		if !ok {
			return true
		}
		p, ok := products[row[1].AsInt()]
		if !ok {
			return true
		}
		p.Version = row[2].AsText()
		b.entry.Products = append(b.entry.Products, p)
		return true
	})
	if err != nil {
		return nil, err
	}

	out := make([]*cve.Entry, 0, len(orderedIDs))
	for _, vid := range orderedIDs {
		out = append(out, byID[vid].entry)
	}
	return out, nil
}

// vectorFromRow rebuilds a CVSS vector from the cvss table's metric
// spellings.
func vectorFromRow(row []relstore.Value) (cvss.Vector, error) {
	var v cvss.Vector
	switch row[1].AsText() {
	case "NETWORK":
		v.AV = cvss.AccessNetwork
	case "ADJACENT_NETWORK":
		v.AV = cvss.AccessAdjacentNetwork
	case "LOCAL":
		v.AV = cvss.AccessLocal
	default:
		return v, fmt.Errorf("vulndb: bad access vector %q", row[1].AsText())
	}
	switch row[2].AsText() {
	case "HIGH":
		v.AC = cvss.ComplexityHigh
	case "MEDIUM":
		v.AC = cvss.ComplexityMedium
	case "LOW":
		v.AC = cvss.ComplexityLow
	}
	switch row[3].AsText() {
	case "MULTIPLE_INSTANCES":
		v.Au = cvss.AuthMultiple
	case "SINGLE_INSTANCE":
		v.Au = cvss.AuthSingle
	case "NONE":
		v.Au = cvss.AuthNone
	}
	impact := func(s string) cvss.Impact {
		switch s {
		case "PARTIAL":
			return cvss.ImpactPartial
		case "COMPLETE":
			return cvss.ImpactComplete
		default:
			return cvss.ImpactNone
		}
	}
	v.C = impact(row[4].AsText())
	v.I = impact(row[5].AsText())
	v.A = impact(row[6].AsText())
	return v, nil
}

// CountByOS runs the paper's first aggregation as SQL: valid
// vulnerabilities per OS name.
func (db *DB) CountByOS() (map[string]int, error) {
	res, err := db.stCountByOS.Query()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].AsText()] = int(row[1].AsInt())
	}
	return out, nil
}

// SharedCount runs the pairwise-overlap aggregation as SQL: distinct
// valid vulnerabilities affecting both named OSes. Names bind as typed
// parameters, so quote-bearing names neither break the query nor
// inject SQL. For the full Table III matrix use SharedMatrix, which
// answers every pair in one grouped plan.
func (db *DB) SharedCount(a, b string) (int, error) {
	n, err := db.stSharedCount.QueryInt(relstore.Text(a), relstore.Text(b))
	return int(n), err
}

// PairShared is one cell of the SQL-computed Table III matrix.
type PairShared struct {
	A, B   string
	Shared int
}

// SharedMatrix materializes the paper's whole Table III v(AB) column in
// one grouped self-join plan: distinct valid vulnerabilities shared by
// every unordered OS pair, in os-id (presentation) order with zero
// cells included — the same pairs, order and counts as
// core.Study.PairMatrix under the FatServer profile. One query replaces
// the n*(n-1)/2 per-pair SharedCount round trips.
func (db *DB) SharedMatrix() ([]PairShared, error) {
	type osRow struct {
		id   int64
		name string
	}
	var oses []osRow
	err := relstore.ScanTable(db.store, "os", func(row []relstore.Value) bool {
		oses = append(oses, osRow{row[0].AsInt(), row[1].AsText()})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(oses, func(i, j int) bool { return oses[i].id < oses[j].id })

	res, err := db.stSharedMatrix.Query()
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(res.Rows))
	for _, row := range res.Rows {
		counts[row[0].AsText()+"\x00"+row[1].AsText()] = int(row[2].AsInt())
	}
	out := make([]PairShared, 0, len(oses)*(len(oses)-1)/2)
	for i := 0; i < len(oses); i++ {
		for j := i + 1; j < len(oses); j++ {
			a, b := oses[i].name, oses[j].name
			out = append(out, PairShared{A: a, B: b, Shared: counts[a+"\x00"+b]})
		}
	}
	return out, nil
}

// Save persists the database to disk; Open loads it back.
func (db *DB) Save(path string) error { return db.store.Save(path) }

// Open loads a saved database. Note that the loader's intern tables are
// rebuilt so further inserts keep working.
func Open(path string) (*DB, error) {
	store, err := relstore.Load(path)
	if err != nil {
		return nil, err
	}
	db := &DB{
		store:     store,
		registry:  osmap.NewRegistry(),
		osIDs:     make(map[osmap.Distro]int64, osmap.NumDistros),
		productID: make(map[string]int64),
	}
	err = relstore.ScanTable(store, "os", func(row []relstore.Value) bool {
		if d, err := osmap.ParseDistro(row[1].AsText()); err == nil {
			db.osIDs[d] = row[0].AsInt()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	err = relstore.ScanTable(store, "product", func(row []relstore.Value) bool {
		key := row[1].AsText() + ":" + row[2].AsText() + ":" + row[3].AsText()
		db.productID[key] = row[0].AsInt()
		if row[0].AsInt() > db.nextProd {
			db.nextProd = row[0].AsInt()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	err = relstore.ScanTable(store, "vulnerability", func(row []relstore.Value) bool {
		if row[0].AsInt() > db.nextVuln {
			db.nextVuln = row[0].AsInt()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := db.prepareStatements(); err != nil {
		return nil, err
	}
	return db, nil
}
