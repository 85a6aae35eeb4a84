// Command nvdgen writes synthetic NVD data feeds — one gzip-compressed
// XML file per publication year, in the NVD 2.0 schema.
//
// By default it writes the calibrated corpus that stands in for the 2010
// snapshot the paper mined. With -synthetic it instead writes the
// seeded "modern NVD" corpus: a deterministic population of -entries
// vulnerabilities over a -distros-wide universe, for exercising the
// analysis engine at production volume.
//
// Usage:
//
//	nvdgen -out feeds/
//	nvdgen -out feeds/ -synthetic -entries 100000 -distros 32 -seed 1
//
// With -snapshot the written feeds are immediately loaded back and
// persisted as a columnar snapshot, so `osdiv -snapshot` can warm-start
// without re-parsing the XML.
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
	log.SetPrefix("nvdgen: ")
	out := flag.String("out", "feeds", "output directory for the XML feeds")
	workers := flag.Int("workers", 1, "worker count for rendering and writing (0 = all CPUs)")
	synthetic := flag.Bool("synthetic", false, "write the seeded synthetic modern-NVD corpus instead of the calibrated one")
	entries := flag.Int("entries", 100_000, "synthetic corpus size (with -synthetic)")
	distros := flag.Int("distros", 32, "synthetic universe width (with -synthetic)")
	seed := flag.Uint64("seed", 1, "synthetic corpus seed (with -synthetic)")
	fromYear := flag.Int("from", 2002, "first synthetic publication year (with -synthetic)")
	toYear := flag.Int("to", 2025, "last synthetic publication year (with -synthetic)")
	snapPath := flag.String("snapshot", "", "also digest the written feeds and persist a columnar snapshot here")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	opt := osdiversity.WithParallelism(*workers)
	var paths []string
	var err error
	if *synthetic {
		spec := osdiversity.SyntheticSpec{
			Entries: *entries, Distros: *distros, Seed: *seed,
			FromYear: *fromYear, ToYear: *toYear,
		}
		paths, err = osdiversity.GenerateSyntheticFeeds(*out, spec, opt)
	} else {
		paths, err = osdiversity.GenerateFeeds(*out, opt)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "wrote %d feeds to %s\n", len(paths), *out)

	if *snapPath != "" {
		sopts := []osdiversity.Option{opt, osdiversity.WithSnapshot(*snapPath)}
		if *synthetic {
			sopts = append(sopts, osdiversity.WithSyntheticUniverse(*distros))
		}
		if _, err := osdiversity.LoadFeeds(paths, sopts...); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", *snapPath)
	}
}
