package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/osmap"
	"osdiversity/internal/server"
	"osdiversity/internal/vulndb"
)

// Request classes. The cold-mix-reload time shares are reported per
// class; the byte check samples the expensive ones.
const (
	classTables    = "tables"
	classSQL       = "sql"
	classAttack    = "attack"
	classRecommend = "recommend"
)

// request is one distinct request the load sends, with the facade
// builder that renders its reference document.
type request struct {
	class  string
	method string
	target string // path and query
	body   []byte // POST body, nil for GET
	// build renders the document the server must answer, canonicalizing
	// parameters against a exactly as the handlers do. db serves the sql
	// class.
	build func(a *osdiversity.Analysis, db *vulndb.DB) (any, error)
	// sql is the statement of an sql-class request; the replay times the
	// store query apart from the document build.
	sql string
}

// id is the request's identity: two requests with equal ids are the
// same cache key at the server.
func (r request) id() string { return r.method + " " + r.target + " " + string(r.body) }

func getReq(target string, build func(a *osdiversity.Analysis) (any, error)) request {
	return request{class: classTables, method: "GET", target: target,
		build: func(a *osdiversity.Analysis, _ *vulndb.DB) (any, error) { return build(a) }}
}

func table1() request {
	return getReq("/api/table1", func(a *osdiversity.Analysis) (any, error) { return server.BuildTable1(a), nil })
}

func table2() request {
	return getReq("/api/table2", func(a *osdiversity.Analysis) (any, error) { return server.BuildTable2(a), nil })
}

func table3() request {
	return getReq("/api/table3", func(a *osdiversity.Analysis) (any, error) { return server.BuildTable3(a), nil })
}

func table4() request {
	return getReq("/api/table4", func(a *osdiversity.Analysis) (any, error) { return server.BuildTable4(a), nil })
}

func table5(split int) request {
	return getReq(fmt.Sprintf("/api/table5?split=%d", split), func(a *osdiversity.Analysis) (any, error) {
		return server.BuildTable5(a, server.CanonSplitYear(a, split)), nil
	})
}

func kwise() request {
	return getReq("/api/kwise", func(a *osdiversity.Analysis) (any, error) { return server.BuildKWise(a), nil })
}

func temporal(os string) request {
	return getReq("/api/temporal?"+url.Values{"os": {os}}.Encode(), func(a *osdiversity.Analysis) (any, error) {
		return server.BuildTemporal(a, os)
	})
}

func mostShared(n int) request {
	return getReq(fmt.Sprintf("/api/mostshared?n=%d", n), func(a *osdiversity.Analysis) (any, error) {
		return server.BuildMostShared(a, server.CanonListLimit(a, n)), nil
	})
}

func selectSets(k int, onePerFamily bool, to, top int) request {
	target := fmt.Sprintf("/api/select?k=%d&one-per-family=%t&to=%d&top=%d", k, onePerFamily, to, top)
	return getReq(target, func(a *osdiversity.Analysis) (any, error) {
		return server.BuildSelect(a, k, onePerFamily, server.CanonSplitYear(a, to), top), nil
	})
}

func releasesGrid() request {
	return getReq("/api/releases", func(a *osdiversity.Analysis) (any, error) { return server.BuildReleases(a) })
}

func releaseCell(x, y osmap.Release) request {
	q := url.Values{"a": {x.Distro.String()}, "va": {x.Version}, "b": {y.Distro.String()}, "vb": {y.Version}}
	return getReq("/api/releases?"+q.Encode(), func(a *osdiversity.Analysis) (any, error) {
		return server.BuildReleaseOverlap(a, x.Distro.String(), x.Version, y.Distro.String(), y.Version)
	})
}

func attackReq(oses []string, trials int) request {
	q := url.Values{"os": oses, "trials": {strconv.Itoa(trials)}}
	r := getReq("/api/attack?"+q.Encode(), func(a *osdiversity.Analysis) (any, error) {
		return server.BuildAttack(a, "configuration", oses, 1, trials)
	})
	r.class = classAttack
	return r
}

func recommendReq(spec httpapi.RecommendRequest) request {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a fixed struct of ints always encodes
	}
	return request{class: classRecommend, method: "POST", target: "/api/recommend", body: body,
		build: func(a *osdiversity.Analysis, _ *vulndb.DB) (any, error) {
			canon, err := server.CanonRecommend(a, spec)
			if err != nil {
				return nil, err
			}
			return server.BuildRecommend(a, canon)
		}}
}

func sqlReq(stmt string) request {
	body, err := json.Marshal(httpapi.QueryRequest{SQL: stmt})
	if err != nil {
		panic(err) // a string field always encodes
	}
	return request{class: classSQL, method: "POST", target: "/api/query", body: body, sql: stmt,
		build: func(_ *osdiversity.Analysis, db *vulndb.DB) (any, error) {
			res, err := db.Store().Query(stmt)
			if err != nil {
				return nil, err
			}
			return server.BuildQueryResult(res), nil
		}}
}

// defaultRecommend is the warm-up's recommend request.
var defaultRecommend = httpapi.RecommendRequest{Trials: 10, Seed: 1}

// universe is what the generators draw parameters from: the synthetic
// registry's distro names and releases, and the corpus year range.
type universe struct {
	names    []string
	releases []osmap.Release
	yearLo   int
	yearHi   int
}

func newUniverse(distros, yearLo, yearHi int) universe {
	reg := osmap.NewSyntheticRegistry(distros)
	u := universe{yearLo: yearLo, yearHi: yearHi}
	for _, d := range reg.Distros() {
		u.names = append(u.names, d.String())
		u.releases = append(u.releases, reg.Releases(d)...)
	}
	return u
}

// year draws a year one past the corpus range on either side, so some
// parameters exercise the server's clamping.
func (u universe) year(r *rand.Rand) int { return u.yearLo - 1 + r.IntN(u.yearHi-u.yearLo+3) }

func (u universe) os(r *rand.Rand) string { return u.names[r.IntN(len(u.names))] }

// hotKeys are the hot-tables dashboard keys in popularity order (rank 0
// is the most requested). The order is fixed so every seed requests the
// same mix of body sizes; the seed only draws the sequence.
func hotKeys(u universe) []request {
	keys := []request{
		selectSets(4, false, 2005, 10), table5(2005), temporal("Debian"), mostShared(3),
		table1(), kwise(), selectSets(3, true, 2010, 5), table2(), releasesGrid(),
		temporal("Windows2003"), table5(2010), mostShared(10), table3(), table4(),
		selectSets(2, false, 2015, 20), temporal("OpenBSD"), table5(2015), mostShared(25),
	}
	for i, os := range []string{"RedHat", "Solaris", "Ubuntu", "FreeBSD", "SynOS000", "SynOS005", "SynOS010", "SynOS015"} {
		keys = append(keys, temporal(os), table5(2016+i))
	}
	for i, k := range []int{1, 2, 3, 4, 5, 6} {
		keys = append(keys, selectSets(k, i%2 == 0, 2006+3*i, 8))
	}
	for i := 0; i < 6; i++ {
		keys = append(keys, releaseCell(u.releases[(7*i)%len(u.releases)], u.releases[(7*i+3)%len(u.releases)]))
	}
	return append(keys, mostShared(50), mostShared(100))
}

// sqlShapes are the plain-SELECT shapes of the sql class. Each takes
// seeded literals; the literals normalize away in relstore's plan cache,
// so the shapes reuse plans while every result is computed again.
var sqlShapes = []func(r *rand.Rand, u universe) string{
	func(r *rand.Rand, u universe) string {
		id := 1 + r.IntN(100_000)
		return fmt.Sprintf("SELECT id, name, published FROM vulnerability WHERE year = %d AND id > %d AND id < %d",
			u.yearLo+r.IntN(u.yearHi-u.yearLo+1), id, id+2000)
	},
	func(r *rand.Rand, u universe) string {
		return fmt.Sprintf("SELECT os.name, os_vuln.version FROM os_vuln JOIN os ON os.id = os_vuln.os_id WHERE os_vuln.vuln_id = %d",
			1+r.IntN(100_000))
	},
	func(r *rand.Rand, u universe) string {
		return fmt.Sprintf("SELECT product.vendor, product.name, vuln_product.version FROM vuln_product JOIN product ON product.id = vuln_product.product_id WHERE vuln_product.vuln_id = %d",
			1+r.IntN(100_000))
	},
	func(r *rand.Rand, u universe) string {
		return fmt.Sprintf("SELECT vulnerability.name, os_vuln.version FROM os_vuln JOIN vulnerability ON vulnerability.id = os_vuln.vuln_id WHERE os_vuln.os_id = %d AND vulnerability.year = %d",
			1+r.IntN(len(u.names)), u.yearLo+r.IntN(u.yearHi-u.yearLo+1))
	},
	func(r *rand.Rand, u universe) string {
		id := 1 + r.IntN(100_000)
		return fmt.Sprintf("SELECT vuln_id, version FROM os_vuln WHERE os_id = %d AND vuln_id > %d AND vuln_id < %d",
			1+r.IntN(len(u.names)), id, id+1500)
	},
}

// tableParam draws one cold table request with random parameters.
func tableParam(r *rand.Rand, u universe) request {
	// table5 and temporal have small key spaces (years, distros); their
	// shares are kept low so repeats within an epoch stay rare.
	switch p := r.IntN(100); {
	case p < 2:
		return table5(u.year(r))
	case p < 4:
		return temporal(u.os(r))
	case p < 55:
		return selectSets(1+r.IntN(6), r.IntN(2) == 0, u.year(r), r.IntN(41))
	case p < 80:
		return mostShared(1 + r.IntN(2000))
	default:
		return releaseCell(u.releases[r.IntN(len(u.releases))], u.releases[r.IntN(len(u.releases))])
	}
}

// coldMix draws one cold-mix-reload request. The class weights put each
// class between a fifth and a half of server handler time at the seed
// commit (RATIONALE.md records the shares the traced run measured).
func coldMix(r *rand.Rand, u universe) request {
	switch p := r.Float64(); {
	case p < coldWeights[0]:
		return tableParam(r, u)
	case p < coldWeights[0]+coldWeights[1]:
		return sqlReq(sqlShapes[r.IntN(len(sqlShapes))](r, u))
	case p < coldWeights[0]+coldWeights[1]+coldWeights[2]:
		oses := make([]string, 0, 4)
		for _, i := range r.Perm(len(u.names))[:4] {
			oses = append(oses, u.names[i])
		}
		return attackReq(oses, 20+r.IntN(181))
	default:
		return recommendReq(httpapi.RecommendRequest{Trials: 5 + r.IntN(16), Seed: 1 + r.Uint64N(1<<32)})
	}
}

// coldWeights are the request shares of tables, sql and attack; the
// rest is recommend.
var coldWeights = [3]float64{0.9, 0.075, 0.0125}

// gatewayMix draws one gateway-4shard request: mostly mergeable tables
// with parameters from large spaces, so the gateway's merged cache
// mostly misses. Selections lead the mix because their shard partials
// are keyed by the end year alone, so the shards mostly hit; listings
// and release cells miss at both tiers; a small share of single-key
// tables is answered from the gateway's cache.
func gatewayMix(r *rand.Rand, u universe) request {
	switch p := r.IntN(100); {
	case p < 60:
		return selectSets(1+r.IntN(6), r.IntN(2) == 0, u.year(r), r.IntN(65))
	case p < 70:
		return mostShared(1 + r.IntN(2000))
	case p < 78:
		return table5(u.year(r))
	case p < 85:
		return temporal(u.os(r))
	case p < 95:
		return releaseCell(u.releases[r.IntN(len(u.releases))], u.releases[r.IntN(len(u.releases))])
	default:
		return []func() request{table1, table2, table3, table4, kwise, releasesGrid}[r.IntN(6)]()
	}
}

// everyTable is one request per table endpoint, the warm-up of the
// open-loop workloads and the memo-refill pass.
func everyTable(u universe) []request {
	return []request{
		table1(), table2(), table3(), table4(), table5(2005), kwise(), temporal(u.names[0]),
		mostShared(3), selectSets(4, false, 2005, 0), releasesGrid(),
		releaseCell(u.releases[0], u.releases[1]),
	}
}
