// Feed pipeline: the paper's §III methodology end to end — XML feeds on
// disk, streamed through the bounded-channel pipeline into the Figure 1
// SQL schema with constant ingestion memory (feeds larger than RAM
// import the same way), then queried with the embedded SQL engine
// directly. Lenient ingestion counts malformed entries instead of
// silently dropping them.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"osdiversity"
	"osdiversity/internal/vulndb"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "osdiv-pipeline-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	feeds, err := osdiversity.GenerateFeeds(filepath.Join(dir, "feeds"))
	if err != nil {
		log.Fatal(err)
	}

	// Stream the feeds straight into the SQL store: entries flow from
	// the XML tokenizers through bounded channels into batched inserts,
	// so ingestion memory stays flat no matter how large the feed set
	// grows. The persisted database is byte-identical at any worker
	// count.
	dbPath := filepath.Join(dir, "study.db")
	var stats osdiversity.FeedStats
	stored, skipped, err := osdiversity.ImportFeeds(dbPath, feeds,
		osdiversity.WithParallelism(0),
		osdiversity.WithLenient(),
		osdiversity.WithFeedStats(&stats))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d entries into the SQL schema (%d skipped, %d malformed dropped)\n\n",
		stored, skipped, stats.MalformedSkipped)

	// Open the database and run the paper's aggregations as literal SQL
	// on the embedded engine.
	db, err := vulndb.Open(dbPath)
	if err != nil {
		log.Fatal(err)
	}

	res, err := db.Store().Query(`
		SELECT os.family, COUNT(DISTINCT os_vuln.vuln_id) AS n
		FROM os
		JOIN os_vuln ON os.id = os_vuln.os_id
		JOIN security_protection sp ON os_vuln.vuln_id = sp.vuln_id
		WHERE sp.validity = 'Valid'
		GROUP BY os.family
		ORDER BY n DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("valid vulnerabilities per OS family (SQL GROUP BY):")
	for _, row := range res.Rows {
		fmt.Printf("  %-8s %4d\n", row[0].AsText(), row[1].AsInt())
	}

	shared, err := db.SharedCount("Debian", "RedHat")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvulnerabilities shared by Debian and RedHat (SQL self-join): %d\n", shared)

	res, err = db.Store().Query(`
		SELECT vt.type, COUNT(*) AS n
		FROM vulnerability_type vt
		JOIN security_protection sp ON vt.vuln_id = sp.vuln_id
		WHERE sp.validity = 'Valid'
		GROUP BY vt.type
		ORDER BY n DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndistinct vulnerabilities per component class:")
	for _, row := range res.Rows {
		fmt.Printf("  %-12s %4d\n", row[0].AsText(), row[1].AsInt())
	}

	// The same feeds also stream into the in-memory analysis — the
	// incremental Study builder digests batches as they decode, so the
	// full entry slice never has to exist at once.
	a, err := osdiversity.LoadFeeds(feeds, osdiversity.WithParallelism(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed analysis: %d valid vulnerabilities across %d OSes\n",
		a.ValidCount(), len(a.OSNames()))
}
