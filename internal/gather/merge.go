package gather

// The per-endpoint scatter+merge handlers. Each one resolves the epoch
// vector, canonicalizes parameters against the merged corpus (never one
// backend's slice), scatters, and merges per the partition arithmetic:
// raw counts sum per-index, derived figures finalize through the same
// internal/core helpers the single-process engine uses — that shared
// arithmetic is what makes the gateway byte-identical to one server.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"osdiversity/internal/core"
	"osdiversity/internal/cve"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/osmap"
	"osdiversity/internal/server"
)

// The parameter defaults mirror the server's, so a bare gateway request
// answers the same document as a bare single-server request.
const (
	defaultSplitYear  = server.DefaultSplitYear
	defaultMostShared = 3
	defaultSelectK    = 4
)

// unmarshalLeg decodes one leg body strictly; the shards emit compact
// canonical JSON, so any decode failure means a version- or
// deployment-mismatched backend.
func unmarshalLeg(body []byte, out any) error {
	return json.Unmarshal(body, out)
}

// decodeLegs decodes every leg of a scatter into T, mapping a decode
// failure to shard_mismatch naming the backend.
func decodeLegs[T any](g *Gateway, bodies [][]byte, what string) ([]T, *gwError) {
	out := make([]T, len(bodies))
	for i, body := range bodies {
		if err := unmarshalLeg(body, &out[i]); err != nil {
			return nil, errMismatch(fmt.Sprintf("backend %s: malformed %s document: %v",
				g.cfg.Backends[i], what, err))
		}
	}
	return out, nil
}

// fetch scatters one GET and decodes every leg.
func fetch[T any](g *Gateway, pr *probeResult, path string, query url.Values) ([]T, *gwError) {
	bodies, gerr := g.scatter(pr, path, query)
	if gerr != nil {
		return nil, gerr
	}
	return decodeLegs[T](g, bodies, path)
}

// intParam and boolParam mirror the server's parsers byte for byte, so
// a bad parameter draws the same envelope from gateway and shard.
func intParam(q url.Values, name string, def, min, max int) (int, *gwError) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errBadParam(fmt.Sprintf("%s=%q is not an integer", name, raw))
	}
	if n < min || n > max {
		return 0, errBadParam(fmt.Sprintf("%s=%d out of range [%d, %d]", name, n, min, max))
	}
	return n, nil
}

func boolParam(q url.Values, name string) (bool, *gwError) {
	raw := q.Get(name)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, errBadParam(fmt.Sprintf("%s=%q is not a boolean", name, raw))
	}
	return v, nil
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.respondDirect(w, httpapi.Health{Status: "ok"})
}

// handleReady aggregates per-shard readiness. All backends ready
// answers the GatewayReady document; any unreachable or unready
// backend answers 503 with per-shard detail in the message, so probes
// and operators see which leg is the problem.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	pr := g.resolve()
	if pr.err != nil {
		msg := "gateway degraded:"
		for _, st := range pr.shards {
			if st.Status != "ok" {
				msg += fmt.Sprintf(" %s=%s", st.Backend, st.Status)
			}
		}
		writeError(w, &gwError{status: http.StatusServiceUnavailable,
			code: "not_ready", message: msg, retryAfter: 1})
		return
	}
	w.Header().Set("X-Osdiv-Epoch", pr.vec)
	g.respondDirect(w, httpapi.GatewayReady{Status: "ok", Epochs: pr.vec, Shards: pr.shards})
}

func (g *Gateway) handleCorpus(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	m, gerr := g.metaFor(pr)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	doc := httpapi.GatewayCorpus{
		Backends:     g.cfg.Backends,
		ValidEntries: m.valid,
		YearFrom:     m.yearLo,
		YearTo:       m.yearHi,
		Epochs:       pr.vec,
		Shards:       make([]httpapi.ShardCorpus, len(m.corpus)),
	}
	for i, info := range m.corpus {
		doc.Shards[i] = httpapi.ShardCorpus{
			Backend:      g.cfg.Backends[i],
			Shard:        info.Shard,
			Source:       info.Source,
			ValidEntries: info.ValidEntries,
			YearFrom:     info.YearFrom,
			YearTo:       info.YearTo,
			Epoch:        info.Epoch,
		}
	}
	g.respondDirect(w, doc)
}

func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	writeError(w, errUnsupported(
		"reload is per-shard; POST /admin/reload on each backend (the gateway tracks epochs per request)"))
}

func (g *Gateway) handleAttack(w http.ResponseWriter, r *http.Request) {
	writeError(w, errUnsupported(
		"the attack Monte Carlo needs the whole corpus in one process; run it against an unsharded server"))
}

func (g *Gateway) handleRecommend(w http.ResponseWriter, r *http.Request) {
	writeError(w, errUnsupported(
		"the schedule search simulates over the whole corpus in one process; run it against an unsharded server"))
}

// addValidity sums one Table I row into an accumulator after checking
// the OS identity lines up across shards.
func mismatchRow(backend, table string, i int, got, want string) *gwError {
	return errMismatch(fmt.Sprintf("backend %s: %s row %d is %q, expected %q",
		backend, table, i, got, want))
}

func (g *Gateway) handleTable1(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "table1", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.Table1](g, pr, "/api/table1", nil)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Rows) != len(merged.Rows) {
				return nil, errMismatch(fmt.Sprintf("backend %s: table1 has %d rows, expected %d",
					g.cfg.Backends[li], len(leg.Rows), len(merged.Rows)))
			}
			for i := range leg.Rows {
				if leg.Rows[i].OS != merged.Rows[i].OS {
					return nil, mismatchRow(g.cfg.Backends[li], "table1", i, leg.Rows[i].OS, merged.Rows[i].OS)
				}
				merged.Rows[i].Valid += leg.Rows[i].Valid
				merged.Rows[i].Unknown += leg.Rows[i].Unknown
				merged.Rows[i].Unspecified += leg.Rows[i].Unspecified
				merged.Rows[i].Disputed += leg.Rows[i].Disputed
			}
			merged.Distinct.Valid += leg.Distinct.Valid
			merged.Distinct.Unknown += leg.Distinct.Unknown
			merged.Distinct.Unspecified += leg.Distinct.Unspecified
			merged.Distinct.Disputed += leg.Distinct.Disputed
		}
		return merged, nil
	})
}

func (g *Gateway) handleTable2(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "table2", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.Table2Partial](g, pr, "/api/partial/table2", nil)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Rows) != len(merged.Rows) {
				return nil, errMismatch(fmt.Sprintf("backend %s: table2 has %d rows, expected %d",
					g.cfg.Backends[li], len(leg.Rows), len(merged.Rows)))
			}
			for i := range leg.Rows {
				if leg.Rows[i].OS != merged.Rows[i].OS {
					return nil, mismatchRow(g.cfg.Backends[li], "table2", i, leg.Rows[i].OS, merged.Rows[i].OS)
				}
				merged.Rows[i].Driver += leg.Rows[i].Driver
				merged.Rows[i].Kernel += leg.Rows[i].Kernel
				merged.Rows[i].SysSoft += leg.Rows[i].SysSoft
				merged.Rows[i].App += leg.Rows[i].App
			}
			for c := range leg.ClassDistinct {
				merged.ClassDistinct[c] += leg.ClassDistinct[c]
			}
			merged.Valid += leg.Valid
		}
		return httpapi.Table2{
			Rows:      merged.Rows,
			SharesPct: core.ClassShares(merged.ClassDistinct, merged.Valid),
		}, nil
	})
}

func (g *Gateway) handleTable3(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "table3", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.Table3](g, pr, "/api/table3", nil)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Rows) != len(merged.Rows) {
				return nil, errMismatch(fmt.Sprintf("backend %s: table3 has %d rows, expected %d",
					g.cfg.Backends[li], len(leg.Rows), len(merged.Rows)))
			}
			for i := range leg.Rows {
				if leg.Rows[i].A != merged.Rows[i].A || leg.Rows[i].B != merged.Rows[i].B {
					return nil, mismatchRow(g.cfg.Backends[li], "table3", i,
						leg.Rows[i].A+"-"+leg.Rows[i].B, merged.Rows[i].A+"-"+merged.Rows[i].B)
				}
				for p := 0; p < 3; p++ {
					merged.Rows[i].TotalA[p] += leg.Rows[i].TotalA[p]
					merged.Rows[i].TotalB[p] += leg.Rows[i].TotalB[p]
				}
				merged.Rows[i].All += leg.Rows[i].All
				merged.Rows[i].NoApp += leg.Rows[i].NoApp
				merged.Rows[i].Remote += leg.Rows[i].Remote
			}
		}
		// The reduction statistic is a mean of ratios — it does not sum.
		// Recompute it from the merged pair columns with the same core
		// arithmetic the Study uses.
		all := make([]int, len(merged.Rows))
		remote := make([]int, len(merged.Rows))
		for i := range merged.Rows {
			all[i] = merged.Rows[i].All
			remote[i] = merged.Rows[i].Remote
		}
		merged.FilterReductionPct = core.FilterReductionFrom(all, remote)
		return merged, nil
	})
}

func (g *Gateway) handleTable4(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "table4", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.Table4Partial](g, pr, "/api/partial/table4", nil)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Rows) != len(merged.Rows) {
				return nil, errMismatch(fmt.Sprintf("backend %s: table4 has %d rows, expected %d",
					g.cfg.Backends[li], len(leg.Rows), len(merged.Rows)))
			}
			for i := range leg.Rows {
				if leg.Rows[i].A != merged.Rows[i].A || leg.Rows[i].B != merged.Rows[i].B {
					return nil, mismatchRow(g.cfg.Backends[li], "table4", i,
						leg.Rows[i].A+"-"+leg.Rows[i].B, merged.Rows[i].A+"-"+merged.Rows[i].B)
				}
				merged.Rows[i].Driver += leg.Rows[i].Driver
				merged.Rows[i].Kernel += leg.Rows[i].Kernel
				merged.Rows[i].SysSoft += leg.Rows[i].SysSoft
				merged.Rows[i].Total += leg.Rows[i].Total
			}
		}
		// Finalize like the single-process table: drop empty pairs, then
		// order by total descending (stable, so ties keep pair order).
		rows := make([]httpapi.PartRow, 0, len(merged.Rows))
		for _, row := range merged.Rows {
			if row.Total > 0 {
				rows = append(rows, row)
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
		return httpapi.Table4{Rows: rows}, nil
	})
}

func (g *Gateway) handleTable5(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	split, gerr := intParam(r.URL.Query(), "split", defaultSplitYear, 1900, 2100)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	m, gerr := g.metaFor(pr)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	split = canonSplitYear(m, split)
	g.respond(w, pr, fmt.Sprintf("table5?split=%d", split), func() (any, *gwError) {
		q := url.Values{"split": {strconv.Itoa(split)}}
		legs, gerr := fetch[httpapi.Table5](g, pr, "/api/partial/table5", q)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Cells) != len(merged.Cells) {
				return nil, errMismatch(fmt.Sprintf("backend %s: table5 has %d cells, expected %d",
					g.cfg.Backends[li], len(leg.Cells), len(merged.Cells)))
			}
			for i := range leg.Cells {
				if leg.Cells[i].A != merged.Cells[i].A || leg.Cells[i].B != merged.Cells[i].B {
					return nil, mismatchRow(g.cfg.Backends[li], "table5", i,
						leg.Cells[i].A+"-"+leg.Cells[i].B, merged.Cells[i].A+"-"+merged.Cells[i].B)
				}
				merged.Cells[i].History += leg.Cells[i].History
				merged.Cells[i].Observed += leg.Cells[i].Observed
			}
		}
		merged.SplitYear = split
		return merged, nil
	})
}

func (g *Gateway) handleTemporal(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	osName := r.URL.Query().Get("os")
	if osName == "" {
		writeError(w, errBadParam("missing required parameter os"))
		return
	}
	g.respond(w, pr, "temporal?os="+osName, func() (any, *gwError) {
		q := url.Values{"os": {osName}}
		legs, gerr := fetch[httpapi.Temporal](g, pr, "/api/temporal", q)
		if gerr != nil {
			return nil, gerr
		}
		maps := make([]map[int]int, len(legs))
		for i, leg := range legs {
			m := make(map[int]int, len(leg.Years))
			for _, yc := range leg.Years {
				m[yc.Year] = yc.Count
			}
			maps[i] = m
		}
		sum := core.MergeYearCounts(maps)
		doc := httpapi.Temporal{OS: osName, Years: make([]httpapi.YearCount, 0, len(sum))}
		for y, n := range sum {
			doc.Years = append(doc.Years, httpapi.YearCount{Year: y, Count: n})
		}
		sort.Slice(doc.Years, func(i, j int) bool { return doc.Years[i].Year < doc.Years[j].Year })
		return doc, nil
	})
}

func (g *Gateway) handleKWise(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "kwise", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.KWise](g, pr, "/api/kwise", nil)
		if gerr != nil {
			return nil, gerr
		}
		maps := make([]map[int]int, len(legs))
		for i, leg := range legs {
			m := make(map[int]int, len(leg.Products))
			for _, kc := range leg.Products {
				m[kc.K] = kc.Count
			}
			maps[i] = m
		}
		sum := core.MergeYearCounts(maps)
		doc := httpapi.KWise{Products: make([]httpapi.KCount, 0, len(sum))}
		for k, n := range sum {
			doc.Products = append(doc.Products, httpapi.KCount{K: k, Count: n})
		}
		sort.Slice(doc.Products, func(i, j int) bool { return doc.Products[i].K < doc.Products[j].K })
		return doc, nil
	})
}

func (g *Gateway) handleMostShared(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	n, gerr := intParam(r.URL.Query(), "n", defaultMostShared, 1, 1<<30)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	m, gerr := g.metaFor(pr)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	// Canonicalize against the summed valid count, like the server does
	// against its own — every larger n is the same full listing.
	if n > m.valid {
		n = m.valid
	}
	g.respond(w, pr, fmt.Sprintf("mostshared?n=%d", n), func() (any, *gwError) {
		q := url.Values{"n": {strconv.Itoa(n)}}
		legs, gerr := fetch[httpapi.MostSharedPartial](g, pr, "/api/partial/mostshared", q)
		if gerr != nil {
			return nil, gerr
		}
		lists := make([][]core.SharedIDCount, len(legs))
		for li, leg := range legs {
			list := make([]core.SharedIDCount, 0, len(leg.Entries))
			for _, e := range leg.Entries {
				id, err := cve.ParseID(e.ID)
				if err != nil {
					return nil, errMismatch(fmt.Sprintf("backend %s: most-shared entry %q: %v",
						g.cfg.Backends[li], e.ID, err))
				}
				list = append(list, core.SharedIDCount{ID: id, Products: e.Products})
			}
			lists[li] = list
		}
		top := core.MergeMostShared(lists, n)
		ids := make([]string, 0, len(top))
		for _, e := range top {
			ids = append(ids, e.ID.String())
		}
		return httpapi.MostShared{N: len(ids), IDs: ids}, nil
	})
}

func (g *Gateway) handleSelect(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	k, gerr := intParam(q, "k", defaultSelectK, 1, 8)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	onePerFamily, gerr := boolParam(q, "one-per-family")
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	toYear, gerr := intParam(q, "to", defaultSplitYear, 1900, 2100)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	top, gerr := intParam(q, "top", 0, 0, 1<<30)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	m, gerr := g.metaFor(pr)
	if gerr != nil {
		writeError(w, gerr)
		return
	}
	toYear = canonSplitYear(m, toYear)
	key := fmt.Sprintf("select?k=%d&opf=%t&to=%d&top=%d", k, onePerFamily, toYear, top)
	g.respond(w, pr, key, func() (any, *gwError) {
		sq := url.Values{"to": {strconv.Itoa(toYear)}}
		legs, gerr := fetch[httpapi.SelectPartial](g, pr, "/api/partial/select", sq)
		if gerr != nil {
			return nil, gerr
		}
		// Sum the cost vectors per index; the shard enumerations all walk
		// osmap.PairsOf(HistoryEligible()), so indexes line up — verified
		// against the gateway's own enumeration below.
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Pairs) != len(merged.Pairs) || len(leg.Singles) != len(merged.Singles) {
				return nil, errMismatch(fmt.Sprintf(
					"backend %s: select costs have %d pairs/%d singles, expected %d/%d",
					g.cfg.Backends[li], len(leg.Pairs), len(leg.Singles),
					len(merged.Pairs), len(merged.Singles)))
			}
			for i := range leg.Pairs {
				if leg.Pairs[i].A != merged.Pairs[i].A || leg.Pairs[i].B != merged.Pairs[i].B {
					return nil, mismatchRow(g.cfg.Backends[li], "select pairs", i,
						leg.Pairs[i].A+"-"+leg.Pairs[i].B, merged.Pairs[i].A+"-"+merged.Pairs[i].B)
				}
				merged.Pairs[i].Shared += leg.Pairs[i].Shared
			}
			for i := range leg.Singles {
				if leg.Singles[i].OS != merged.Singles[i].OS {
					return nil, mismatchRow(g.cfg.Backends[li], "select singles", i,
						leg.Singles[i].OS, merged.Singles[i].OS)
				}
				merged.Singles[i].Total += leg.Singles[i].Total
			}
		}
		candidates := osmap.HistoryEligible()
		pairs := osmap.PairsOf(candidates)
		if len(merged.Pairs) != len(pairs) || len(merged.Singles) != len(candidates) {
			return nil, errMismatch(fmt.Sprintf(
				"shards enumerate %d pairs/%d singles, gateway expects %d/%d",
				len(merged.Pairs), len(merged.Singles), len(pairs), len(candidates)))
		}
		pairCost := make(map[osmap.Pair]int, len(pairs))
		for i, p := range pairs {
			if merged.Pairs[i].A != p.A.String() || merged.Pairs[i].B != p.B.String() {
				return nil, errMismatch(fmt.Sprintf("select pair %d is %s-%s, gateway expects %s",
					i, merged.Pairs[i].A, merged.Pairs[i].B, p))
			}
			pairCost[p] = merged.Pairs[i].Shared
		}
		singleCost := make(map[osmap.Distro]int, len(candidates))
		for i, d := range candidates {
			if merged.Singles[i].OS != d.String() {
				return nil, errMismatch(fmt.Sprintf("select single %d is %s, gateway expects %s",
					i, merged.Singles[i].OS, d))
			}
			singleCost[d] = merged.Singles[i].Total
		}
		strategy := core.MinPairSum
		if onePerFamily {
			strategy = core.OnePerFamily
		}
		ranked := core.RankSetsFromCosts(candidates, k, strategy,
			func(p osmap.Pair) int { return pairCost[p] },
			func(d osmap.Distro) int { return singleCost[d] })
		if top > 0 && len(ranked) > top {
			ranked = ranked[:top]
		}
		doc := httpapi.Select{
			K: k, OnePerFamily: onePerFamily, ToYear: toYear,
			Sets: make([]httpapi.ReplicaSet, 0, len(ranked)),
		}
		for _, rs := range ranked {
			members := make([]string, 0, len(rs.Members))
			for _, d := range rs.Members {
				members = append(members, d.String())
			}
			doc.Sets = append(doc.Sets, httpapi.ReplicaSet{Members: members, Shared: rs.Cost})
		}
		return doc, nil
	})
}

func (g *Gateway) handleReleases(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	a, va := q.Get("a"), q.Get("va")
	b, vb := q.Get("b"), q.Get("vb")
	set := 0
	for _, v := range []string{a, va, b, vb} {
		if v != "" {
			set++
		}
	}
	var key string
	var sq url.Values
	switch set {
	case 0:
		key = "releases"
	case 4:
		sq = url.Values{"a": {a}, "va": {va}, "b": {b}, "vb": {vb}}
		key = "releases?" + sq.Encode()
	default:
		writeError(w, errBadParam("release overlap needs all of a, va, b, vb (or none for the Table VI grid)"))
		return
	}
	g.respond(w, pr, key, func() (any, *gwError) {
		legs, gerr := fetch[httpapi.Releases](g, pr, "/api/releases", sq)
		if gerr != nil {
			return nil, gerr
		}
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Cells) != len(merged.Cells) {
				return nil, errMismatch(fmt.Sprintf("backend %s: releases has %d cells, expected %d",
					g.cfg.Backends[li], len(leg.Cells), len(merged.Cells)))
			}
			for i := range leg.Cells {
				lc, mc := leg.Cells[i], merged.Cells[i]
				if lc.A != mc.A || lc.VA != mc.VA || lc.B != mc.B || lc.VB != mc.VB {
					return nil, mismatchRow(g.cfg.Backends[li], "releases", i,
						lc.A+lc.VA+"-"+lc.B+lc.VB, mc.A+mc.VA+"-"+mc.B+mc.VB)
				}
				merged.Cells[i].Shared += lc.Shared
			}
		}
		return merged, nil
	})
}

func (g *Gateway) handleSQLTable3(w http.ResponseWriter, r *http.Request) {
	pr, ok := g.start(w)
	if !ok {
		return
	}
	g.respond(w, pr, "sqltable3", func() (any, *gwError) {
		legs, gerr := fetch[httpapi.SQLTable3](g, pr, "/api/sqltable3", nil)
		if gerr != nil {
			return nil, gerr
		}
		// The os dimension table is seeded identically in every shard
		// database, so the matrices carry the same pairs in the same
		// order and the cells sum per index.
		merged := legs[0]
		for li := 1; li < len(legs); li++ {
			leg := legs[li]
			if len(leg.Cells) != len(merged.Cells) {
				return nil, errMismatch(fmt.Sprintf("backend %s: sqltable3 has %d cells, expected %d",
					g.cfg.Backends[li], len(leg.Cells), len(merged.Cells)))
			}
			for i := range leg.Cells {
				if leg.Cells[i].A != merged.Cells[i].A || leg.Cells[i].B != merged.Cells[i].B {
					return nil, mismatchRow(g.cfg.Backends[li], "sqltable3", i,
						leg.Cells[i].A+"-"+leg.Cells[i].B, merged.Cells[i].A+"-"+merged.Cells[i].B)
				}
				merged.Cells[i].Shared += leg.Cells[i].Shared
			}
		}
		return merged, nil
	})
}

// canonSplitYear clamps a split/selection year against the merged
// corpus's year range, mirroring the server's per-corpus clamp.
func canonSplitYear(m *shardMeta, year int) int {
	return server.CanonSplitYearRange(m.yearLo, m.yearHi, year)
}
