package vulndb

import (
	"fmt"

	"osdiversity/internal/classify"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/relstore"
)

// This file is the N-version reference of the ingestion path: a
// per-row insert that writes the Figure 1 layout one InsertRow at a
// time, written independently of LoadEntries' digest, staging and batch
// flush. The identity tests require LoadEntries to save the bytes this
// oracle saves.

// InsertEntry loads one NVD entry through the Figure 1 schema. Entries
// without any clustered OS product are skipped (the paper keeps only its
// 64 CPEs); the return value reports whether the entry was stored.
func (db *DB) InsertEntry(e *cve.Entry, classifier *classify.Classifier) (bool, error) {
	clustered := false
	for _, p := range e.Products {
		if _, ok := db.registry.Cluster(p); ok {
			clustered = true
			break
		}
	}
	if !clustered {
		return false, nil
	}
	db.nextVuln++
	vulnID := db.nextVuln
	err := relstore.InsertRow(db.store, "vulnerability",
		[]string{"id", "name", "year", "published", "summary"},
		[]relstore.Value{
			relstore.Int(vulnID), relstore.Text(e.ID.String()),
			relstore.Int(int64(e.Year())), relstore.Time(e.Published), relstore.Text(e.Summary),
		})
	if err != nil {
		return false, err
	}

	class := classifier.Classify(e)
	if err := relstore.InsertRow(db.store, "vulnerability_type",
		[]string{"vuln_id", "type"},
		[]relstore.Value{relstore.Int(vulnID), relstore.Text(class.String())}); err != nil {
		return false, err
	}
	validity := classify.EntryValidity(e)
	if err := relstore.InsertRow(db.store, "security_protection",
		[]string{"vuln_id", "validity"},
		[]relstore.Value{relstore.Int(vulnID), relstore.Text(validity.String())}); err != nil {
		return false, err
	}
	if !e.CVSS.IsZero() {
		v := e.CVSS
		err := relstore.InsertRow(db.store, "cvss",
			[]string{"vuln_id", "access_vector", "access_complexity", "authentication",
				"conf_impact", "integ_impact", "avail_impact", "score", "remote"},
			[]relstore.Value{
				relstore.Int(vulnID), relstore.Text(v.AV.String()), relstore.Text(v.AC.String()),
				relstore.Text(v.Au.String()), relstore.Text(v.C.String()), relstore.Text(v.I.String()),
				relstore.Text(v.A.String()), relstore.Float(v.BaseScore()), relstore.Bool(v.AV.Remote()),
			})
		if err != nil {
			return false, err
		}
	}

	for _, p := range e.Products {
		prodID, err := db.internProduct(p)
		if err != nil {
			return false, err
		}
		if err := relstore.InsertRow(db.store, "vuln_product",
			[]string{"vuln_id", "product_id", "version"},
			[]relstore.Value{relstore.Int(vulnID), relstore.Int(prodID), relstore.Text(p.Version)}); err != nil {
			return false, err
		}
		if d, ok := db.registry.Cluster(p); ok && p.IsOS() {
			if err := relstore.InsertRow(db.store, "os_vuln",
				[]string{"os_id", "vuln_id", "version"},
				[]relstore.Value{relstore.Int(db.osIDs[d]), relstore.Int(vulnID), relstore.Text(p.Version)}); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

func (db *DB) internProduct(p cpe.Name) (int64, error) {
	key := p.Part.String() + ":" + p.Vendor + ":" + p.Product
	if id, ok := db.productID[key]; ok {
		return id, nil
	}
	db.nextProd++
	id := db.nextProd
	err := relstore.InsertRow(db.store, "product",
		[]string{"id", "part", "vendor", "name"},
		[]relstore.Value{relstore.Int(id), relstore.Text(p.Part.String()), relstore.Text(p.Vendor), relstore.Text(p.Product)})
	if err != nil {
		return 0, err
	}
	db.productID[key] = id
	return id, nil
}

// insertAll runs the oracle over entries, counting stored and skipped.
func (db *DB) insertAll(entries []*cve.Entry, classifier *classify.Classifier) (stored, skipped int, err error) {
	for _, e := range entries {
		ok, err := db.InsertEntry(e, classifier)
		if err != nil {
			return stored, skipped, fmt.Errorf("vulndb: %s: %w", e.ID, err)
		}
		if ok {
			stored++
		} else {
			skipped++
		}
	}
	return stored, skipped, nil
}
