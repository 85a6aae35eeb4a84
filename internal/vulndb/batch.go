package vulndb

import (
	"fmt"
	"sync"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
	"osdiversity/internal/relstore"
)

// This file is the ingestion path: entry digestion (classification,
// validity tagging, CPE clustering — the CPU-bound half of an insert)
// fans out to a worker pool, and the resulting rows reach the store
// through batched InsertRows calls instead of one lock round trip per
// row. IDs are assigned and products interned in entry order by the
// sequential stage, so the database is the same at any worker count.

// batchSize is how many entries LoadEntries digests and inserts at a
// time — the memory bound of one call, whatever its slice length.
const batchSize = 1024

// entryDigest carries the parallel-computable part of one insert.
type entryDigest struct {
	clustered bool
	class     classify.Class
	validity  classify.Validity
	// clusters mirrors entry.Products: the clustered distro of each
	// product, when it has one.
	clusters []clusterRef
}

type clusterRef struct {
	distro osmap.Distro
	ok     bool
}

func (db *DB) digestEntry(e *cve.Entry, classifier *classify.Classifier) entryDigest {
	dig := entryDigest{
		class:    classifier.Classify(e),
		validity: classify.EntryValidity(e),
		clusters: make([]clusterRef, len(e.Products)),
	}
	for i, p := range e.Products {
		d, ok := db.registry.Cluster(p)
		dig.clusters[i] = clusterRef{distro: d, ok: ok}
		if ok {
			dig.clustered = true
		}
	}
	return dig
}

// rowBatch accumulates pending rows per table, flushed in schema order.
type rowBatch struct {
	vulnerability [][]relstore.Value
	vulnType      [][]relstore.Value
	secProt       [][]relstore.Value
	cvss          [][]relstore.Value
	product       [][]relstore.Value
	osVuln        [][]relstore.Value
	vulnProduct   [][]relstore.Value
}

func (b *rowBatch) flush(db *DB) error {
	for _, t := range []struct {
		name    string
		columns []string
		rows    *[][]relstore.Value
	}{
		{"vulnerability", []string{"id", "name", "year", "published", "summary"}, &b.vulnerability},
		{"vulnerability_type", []string{"vuln_id", "type"}, &b.vulnType},
		{"security_protection", []string{"vuln_id", "validity"}, &b.secProt},
		{"cvss", []string{"vuln_id", "access_vector", "access_complexity", "authentication",
			"conf_impact", "integ_impact", "avail_impact", "score", "remote"}, &b.cvss},
		{"product", []string{"id", "part", "vendor", "name"}, &b.product},
		{"os_vuln", []string{"os_id", "vuln_id", "version"}, &b.osVuln},
		{"vuln_product", []string{"vuln_id", "product_id", "version"}, &b.vulnProduct},
	} {
		if err := relstore.InsertRows(db.store, t.name, t.columns, *t.rows); err != nil {
			return err
		}
		*t.rows = (*t.rows)[:0]
	}
	return nil
}

// appendEntry stages one digested entry's rows — the Figure 1 row
// layout. It runs in the sequential stage: vulnerability IDs and
// product interning follow entry order.
func (db *DB) appendEntry(e *cve.Entry, dig *entryDigest, b *rowBatch) {
	db.nextVuln++
	vulnID := db.nextVuln
	b.vulnerability = append(b.vulnerability, []relstore.Value{
		relstore.Int(vulnID), relstore.Text(e.ID.String()),
		relstore.Int(int64(e.Year())), relstore.Time(e.Published), relstore.Text(e.Summary),
	})
	b.vulnType = append(b.vulnType, []relstore.Value{
		relstore.Int(vulnID), relstore.Text(dig.class.String()),
	})
	b.secProt = append(b.secProt, []relstore.Value{
		relstore.Int(vulnID), relstore.Text(dig.validity.String()),
	})
	if !e.CVSS.IsZero() {
		v := e.CVSS
		b.cvss = append(b.cvss, []relstore.Value{
			relstore.Int(vulnID), relstore.Text(v.AV.String()), relstore.Text(v.AC.String()),
			relstore.Text(v.Au.String()), relstore.Text(v.C.String()), relstore.Text(v.I.String()),
			relstore.Text(v.A.String()), relstore.Float(v.BaseScore()), relstore.Bool(v.AV.Remote()),
		})
	}
	for i, p := range e.Products {
		key := p.Part.String() + ":" + p.Vendor + ":" + p.Product
		prodID, ok := db.productID[key]
		if !ok {
			db.nextProd++
			prodID = db.nextProd
			db.productID[key] = prodID
			b.product = append(b.product, []relstore.Value{
				relstore.Int(prodID), relstore.Text(p.Part.String()),
				relstore.Text(p.Vendor), relstore.Text(p.Product),
			})
		}
		b.vulnProduct = append(b.vulnProduct, []relstore.Value{
			relstore.Int(vulnID), relstore.Int(prodID), relstore.Text(p.Version),
		})
		if dig.clusters[i].ok && p.IsOS() {
			b.osVuln = append(b.osVuln, []relstore.Value{
				relstore.Int(db.osIDs[dig.clusters[i].distro]), relstore.Int(vulnID), relstore.Text(p.Version),
			})
		}
	}
}

// digestAll fills digests[i] for each entry, fanning the CPU-bound
// digestion out to the worker pool when the batch is large enough.
func (db *DB) digestAll(entries []*cve.Entry, classifier *classify.Classifier, workers int, digests []entryDigest) {
	if workers > 1 && len(entries) >= 2*workers {
		chunk := (len(entries) + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < len(entries); lo += chunk {
			hi := min(lo+chunk, len(entries))
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					digests[i] = db.digestEntry(entries[i], classifier)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i, e := range entries {
			digests[i] = db.digestEntry(e, classifier)
		}
	}
}

// LoadEntries inserts entries through the Figure 1 schema and reports
// how many were stored and how many skipped: an entry without any
// clustered OS product is dropped (the paper keeps only its 64 CPEs).
// An entry it would store whose publication date relstore.CheckTime
// refuses fails the load before any of its rows are staged; the entries
// before it stay stored.
// Entries go in batchSize at a time: the batch digests on the
// SetParallelism worker count, then the sequential stage stages its
// rows in entry order and inserts them in one batch per table. IDs and
// product interning carry over from call to call, so a feed loaded in
// batches of any size saves the same bytes as one call over the whole
// slice, at any worker count.
func (db *DB) LoadEntries(entries []*cve.Entry, classifier *classify.Classifier) (stored, skipped int, err error) {
	workers := db.store.Parallelism()
	digests := make([]entryDigest, min(len(entries), batchSize))
	var rows rowBatch
	for lo := 0; lo < len(entries); lo += batchSize {
		batch := entries[lo:min(lo+batchSize, len(entries))]
		db.digestAll(batch, classifier, workers, digests)
		for i, e := range batch {
			if !digests[i].clustered {
				skipped++
				continue
			}
			if err := relstore.CheckTime(e.Published); err != nil {
				if ferr := rows.flush(db); ferr != nil {
					return stored, skipped, fmt.Errorf("vulndb: batch from %s: %w", batch[0].ID, ferr)
				}
				return stored, skipped, fmt.Errorf("vulndb: entry %s: published: %w", e.ID, err)
			}
			db.appendEntry(e, &digests[i], &rows)
			stored++
		}
		if err := rows.flush(db); err != nil {
			return stored, skipped, fmt.Errorf("vulndb: batch from %s: %w", batch[0].ID, err)
		}
	}
	return stored, skipped, nil
}
