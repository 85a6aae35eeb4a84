package server

// The gateway merges. Year-range shards partition the corpus (every
// vulnerability lives in exactly one shard), so raw counts sum per
// index and derived figures finalize through the same internal/core
// helpers the single-process engine uses — that shared arithmetic is
// what makes the gateway byte-identical to one server.

import (
	"encoding/json"
	"fmt"
	"sort"

	"osdiversity/internal/core"
	"osdiversity/internal/cve"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/osmap"
)

// decodeLegs decodes every leg into T. The shards emit compact
// canonical JSON, so a decode failure means a version- or
// deployment-mismatched backend.
func decodeLegs[T any](legs []Leg) ([]T, *Error) {
	out := make([]T, len(legs))
	for i, leg := range legs {
		if err := json.Unmarshal(leg.Body, &out[i]); err != nil {
			return nil, ErrMismatch(fmt.Sprintf("backend %s: malformed %s document: %v",
				leg.Backend, leg.Path, err))
		}
	}
	return out, nil
}

func mismatchRow(backend, table string, i int, got, want string) *Error {
	return ErrMismatch(fmt.Sprintf("backend %s: %s row %d is %q, expected %q",
		backend, table, i, got, want))
}

// sumRows folds the rows of every leg's document into leg 0's, index
// by index. The shards enumerate rows in one order, so row i names the
// same OS, pair or release on every leg — checked through id — and add
// sums its counts.
func sumRows[D, R any](legs []Leg, docs []D, table, unit string, rows func(*D) []R, id func(R) string, add func(*R, R)) ([]R, *Error) {
	merged := rows(&docs[0])
	for li := 1; li < len(docs); li++ {
		leg := rows(&docs[li])
		if len(leg) != len(merged) {
			return nil, ErrMismatch(fmt.Sprintf("backend %s: %s has %d %s, expected %d",
				legs[li].Backend, table, len(leg), unit, len(merged)))
		}
		for i := range leg {
			if got, want := id(leg[i]), id(merged[i]); got != want {
				return nil, mismatchRow(legs[li].Backend, table, i, got, want)
			}
			add(&merged[i], leg[i])
		}
	}
	return merged, nil
}

func pairID(a, b string) string { return a + "-" + b }

func addValidity(m *httpapi.ValidityRow, r httpapi.ValidityRow) {
	m.Valid += r.Valid
	m.Unknown += r.Unknown
	m.Unspecified += r.Unspecified
	m.Disputed += r.Disputed
}

func mergeTable1(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Table1](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "table1", "rows",
		func(d *httpapi.Table1) []httpapi.ValidityRow { return d.Rows },
		func(r httpapi.ValidityRow) string { return r.OS }, addValidity)
	if err != nil {
		return nil, err
	}
	doc := httpapi.Table1{Rows: merged, Distinct: docs[0].Distinct}
	for _, d := range docs[1:] {
		addValidity(&doc.Distinct, d.Distinct)
	}
	return doc, nil
}

func mergeTable2(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Table2Partial](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "table2", "rows",
		func(d *httpapi.Table2Partial) []httpapi.ClassRow { return d.Rows },
		func(r httpapi.ClassRow) string { return r.OS },
		func(m *httpapi.ClassRow, r httpapi.ClassRow) {
			m.Driver += r.Driver
			m.Kernel += r.Kernel
			m.SysSoft += r.SysSoft
			m.App += r.App
		})
	if err != nil {
		return nil, err
	}
	var distinct [4]int
	valid := 0
	for _, d := range docs {
		for c := range d.ClassDistinct {
			distinct[c] += d.ClassDistinct[c]
		}
		valid += d.Valid
	}
	return httpapi.Table2{Rows: merged, SharesPct: core.ClassShares(distinct, valid)}, nil
}

func mergeTable3(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Table3](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "table3", "rows",
		func(d *httpapi.Table3) []httpapi.PairRow { return d.Rows },
		func(r httpapi.PairRow) string { return pairID(r.A, r.B) },
		func(m *httpapi.PairRow, r httpapi.PairRow) {
			for p := range m.TotalA {
				m.TotalA[p] += r.TotalA[p]
				m.TotalB[p] += r.TotalB[p]
			}
			m.All += r.All
			m.NoApp += r.NoApp
			m.Remote += r.Remote
		})
	if err != nil {
		return nil, err
	}
	// The reduction statistic is a mean of ratios — it does not sum.
	// Recompute it from the merged pair columns with the same core
	// arithmetic the Study uses.
	all := make([]int, len(merged))
	remote := make([]int, len(merged))
	for i, r := range merged {
		all[i], remote[i] = r.All, r.Remote
	}
	return httpapi.Table3{Rows: merged, FilterReductionPct: core.FilterReductionFrom(all, remote)}, nil
}

func mergeTable4(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Table4Partial](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "table4", "rows",
		func(d *httpapi.Table4Partial) []httpapi.PartRow { return d.Rows },
		func(r httpapi.PartRow) string { return pairID(r.A, r.B) },
		func(m *httpapi.PartRow, r httpapi.PartRow) {
			m.Driver += r.Driver
			m.Kernel += r.Kernel
			m.SysSoft += r.SysSoft
			m.Total += r.Total
		})
	if err != nil {
		return nil, err
	}
	// Finalize like the single-process table: drop empty pairs, then
	// order by total descending (stable, so ties keep pair order).
	out := make([]httpapi.PartRow, 0, len(merged))
	for _, r := range merged {
		if r.Total > 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return httpapi.Table4{Rows: out}, nil
}

func mergeTable5(legs []Leg, p *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Table5](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "table5", "cells",
		func(d *httpapi.Table5) []httpapi.PeriodCell { return d.Cells },
		func(c httpapi.PeriodCell) string { return pairID(c.A, c.B) },
		func(m *httpapi.PeriodCell, c httpapi.PeriodCell) {
			m.History += c.History
			m.Observed += c.Observed
		})
	if err != nil {
		return nil, err
	}
	// Each shard echoes the split clamped to its own slice.
	return httpapi.Table5{SplitYear: p.split, Cells: merged}, nil
}

// sumCounts adds per-key counts across legs (temporal years, k-wise
// buckets) and returns them sorted by key.
func sumCounts(legs [][]httpapi.YearCount) []httpapi.YearCount {
	maps := make([]map[int]int, len(legs))
	for i, leg := range legs {
		maps[i] = make(map[int]int, len(leg))
		for _, yc := range leg {
			maps[i][yc.Year] = yc.Count
		}
	}
	sum := core.MergeYearCounts(maps)
	out := make([]httpapi.YearCount, 0, len(sum))
	for y, n := range sum {
		out = append(out, httpapi.YearCount{Year: y, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

func mergeTemporal(legs []Leg, p *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Temporal](legs)
	if err != nil {
		return nil, err
	}
	years := make([][]httpapi.YearCount, len(docs))
	for i, d := range docs {
		years[i] = d.Years
	}
	return httpapi.Temporal{OS: p.os, Years: sumCounts(years)}, nil
}

func mergeKWise(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.KWise](legs)
	if err != nil {
		return nil, err
	}
	counts := make([][]httpapi.YearCount, len(docs))
	for i, d := range docs {
		counts[i] = make([]httpapi.YearCount, len(d.Products))
		for j, kc := range d.Products {
			counts[i][j] = httpapi.YearCount{Year: kc.K, Count: kc.Count}
		}
	}
	sum := sumCounts(counts)
	doc := httpapi.KWise{Products: make([]httpapi.KCount, len(sum))}
	for i, kc := range sum {
		doc.Products[i] = httpapi.KCount{K: kc.Year, Count: kc.Count}
	}
	return doc, nil
}

func mergeMostShared(legs []Leg, p *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.MostSharedPartial](legs)
	if err != nil {
		return nil, err
	}
	lists := make([][]core.SharedIDCount, len(docs))
	for li, d := range docs {
		lists[li] = make([]core.SharedIDCount, 0, len(d.Entries))
		for _, e := range d.Entries {
			id, perr := cve.ParseID(e.ID)
			if perr != nil {
				return nil, ErrMismatch(fmt.Sprintf("backend %s: most-shared entry %q: %v",
					legs[li].Backend, e.ID, perr))
			}
			lists[li] = append(lists[li], core.SharedIDCount{ID: id, Products: e.Products})
		}
	}
	top := core.MergeMostShared(lists, p.n)
	ids := make([]string, 0, len(top))
	for _, e := range top {
		ids = append(ids, e.ID.String())
	}
	return httpapi.MostShared{N: len(ids), IDs: ids}, nil
}

func mergeSelect(legs []Leg, p *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.SelectPartial](legs)
	if err != nil {
		return nil, err
	}
	for i, d := range docs {
		if len(d.Pairs) != len(docs[0].Pairs) || len(d.Singles) != len(docs[0].Singles) {
			return nil, ErrMismatch(fmt.Sprintf(
				"backend %s: select costs have %d pairs/%d singles, expected %d/%d",
				legs[i].Backend, len(d.Pairs), len(d.Singles), len(docs[0].Pairs), len(docs[0].Singles)))
		}
	}
	// Sum the cost vectors per index; the shard enumerations all walk
	// osmap.PairsOf(HistoryEligible()), so indexes line up — verified
	// against the gateway's own enumeration below.
	mp, err := sumRows(legs, docs, "select pairs", "pairs",
		func(d *httpapi.SelectPartial) []httpapi.SelectPairCost { return d.Pairs },
		func(c httpapi.SelectPairCost) string { return pairID(c.A, c.B) },
		func(m *httpapi.SelectPairCost, c httpapi.SelectPairCost) { m.Shared += c.Shared })
	if err != nil {
		return nil, err
	}
	ms, err := sumRows(legs, docs, "select singles", "singles",
		func(d *httpapi.SelectPartial) []httpapi.SelectOSCost { return d.Singles },
		func(c httpapi.SelectOSCost) string { return c.OS },
		func(m *httpapi.SelectOSCost, c httpapi.SelectOSCost) { m.Total += c.Total })
	if err != nil {
		return nil, err
	}
	candidates := osmap.HistoryEligible()
	eligible := osmap.PairsOf(candidates)
	if len(mp) != len(eligible) || len(ms) != len(candidates) {
		return nil, ErrMismatch(fmt.Sprintf(
			"shards enumerate %d pairs/%d singles, gateway expects %d/%d",
			len(mp), len(ms), len(eligible), len(candidates)))
	}
	pairCost := make(map[osmap.Pair]int, len(eligible))
	for i, pr := range eligible {
		if mp[i].A != pr.A.String() || mp[i].B != pr.B.String() {
			return nil, ErrMismatch(fmt.Sprintf("select pair %d is %s-%s, gateway expects %s",
				i, mp[i].A, mp[i].B, pr))
		}
		pairCost[pr] = mp[i].Shared
	}
	singleCost := make(map[osmap.Distro]int, len(candidates))
	for i, d := range candidates {
		if ms[i].OS != d.String() {
			return nil, ErrMismatch(fmt.Sprintf("select single %d is %s, gateway expects %s",
				i, ms[i].OS, d))
		}
		singleCost[d] = ms[i].Total
	}
	strategy := core.MinPairSum
	if p.onePerFamily {
		strategy = core.OnePerFamily
	}
	ranked := core.RankSetsFromCosts(candidates, p.k, strategy,
		func(pr osmap.Pair) int { return pairCost[pr] },
		func(d osmap.Distro) int { return singleCost[d] })
	if p.top > 0 && len(ranked) > p.top {
		ranked = ranked[:p.top]
	}
	doc := httpapi.Select{
		K: p.k, OnePerFamily: p.onePerFamily, ToYear: p.to,
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
}

func mergeReleases(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.Releases](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "releases", "cells",
		func(d *httpapi.Releases) []httpapi.ReleaseCell { return d.Cells },
		func(c httpapi.ReleaseCell) string { return pairID(c.A+c.VA, c.B+c.VB) },
		func(m *httpapi.ReleaseCell, c httpapi.ReleaseCell) { m.Shared += c.Shared })
	if err != nil {
		return nil, err
	}
	return httpapi.Releases{Cells: merged}, nil
}

// mergeSQLTable3 sums the shard matrices per cell: the os dimension
// table is seeded identically in every shard database, so they carry
// the same pairs in the same order.
func mergeSQLTable3(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.SQLTable3](legs)
	if err != nil {
		return nil, err
	}
	merged, err := sumRows(legs, docs, "sqltable3", "cells",
		func(d *httpapi.SQLTable3) []httpapi.SQLCell { return d.Cells },
		func(c httpapi.SQLCell) string { return pairID(c.A, c.B) },
		func(m *httpapi.SQLCell, c httpapi.SQLCell) { m.Shared += c.Shared })
	if err != nil {
		return nil, err
	}
	return httpapi.SQLTable3{Cells: merged}, nil
}
