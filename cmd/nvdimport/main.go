// Command nvdimport parses NVD XML data feeds and loads them into the
// study's SQL database (the paper's Figure 1 schema on the embedded
// relational store), persisting the result for later analysis.
//
// Usage:
//
//	nvdimport -db study.db feeds/nvdcve-2.0-*.xml.gz
//
// The feeds stream through a bounded pipeline straight into the store,
// so ingestion memory stays constant however large the feed set is, and
// the database bytes are the same at any -workers count. With -lenient
// malformed entries are skipped and counted instead of failing the
// import; the count is printed so nothing is silently lost. With
// -table3 the import finishes by running the grouped pairwise SQL query
// (the paper's Table III v(AB) matrix) against the freshly written
// database, as a smoke test of the SQL path. With -snapshot the
// digested study is also persisted as a columnar snapshot file, the
// warm-start input of `osdiv -snapshot`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"osdiversity"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvdimport: ")
	db := flag.String("db", "study.db", "path of the database file to write")
	workers := flag.Int("workers", 1, "worker count for decoding, ingestion and SQL probes (0 = all CPUs)")
	lenient := flag.Bool("lenient", false, "skip and count malformed feed entries instead of failing")
	table3 := flag.Bool("table3", false, "after importing, print the Table III pairwise matrix via the SQL engine")
	snapPath := flag.String("snapshot", "", "also persist the digested study as a columnar snapshot here")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: nvdimport [-db study.db] [-workers n] [-lenient] [-table3] [-snapshot study.osds] feed.xml[.gz]...")
		os.Exit(2)
	}

	var stats osdiversity.FeedStats
	opts := []osdiversity.Option{
		osdiversity.WithParallelism(*workers),
		osdiversity.WithFeedStats(&stats),
	}
	if *lenient {
		opts = append(opts, osdiversity.WithLenient())
	}
	if *snapPath != "" {
		opts = append(opts, osdiversity.WithSnapshot(*snapPath))
	}
	stored, skipped, err := osdiversity.ImportFeeds(*db, flag.Args(), opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d entries (%d skipped: no clustered OS product, %d malformed entries dropped) into %s\n",
		stored, skipped, stats.MalformedSkipped, *db)
	if *snapPath != "" {
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", *snapPath)
	}

	if *table3 {
		cells, err := osdiversity.SQLPairwiseShared(*db, osdiversity.WithParallelism(*workers))
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range cells {
			fmt.Printf("%s-%s\t%d\n", c.A, c.B, c.Shared)
		}
	}
}
