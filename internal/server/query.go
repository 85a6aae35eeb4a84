package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"osdiversity/internal/httpapi"
	"osdiversity/internal/relstore"
	"osdiversity/internal/vulndb"
)

// POST /api/query: ad-hoc SELECTs over the resident imported database.
// The statement compiles through relstore's shared plan cache, so
// repeated shapes — even with different literals or arguments — reuse
// one plan, and results larger than streamAbove rows stream instead of
// entering the response cache. Only SELECT is accepted: the corpus is
// read-only while serving, so a statement that begins with CREATE,
// INSERT, UPDATE, DELETE or DROP answers 400 unsupported_statement
// before touching the engine.
//
// At the gateway the SELECT scatters to every shard database and the
// row sets concatenate in shard order. The shard databases are
// row-partitions of the full import (each vulnerability's facts live in
// exactly one shard; dimension tables are seeded identically), so plain
// SELECT output — a filtered projection of rows in scan order — is the
// concatenation of the per-shard outputs. Statements whose result is
// not a per-row function of the partition (DISTINCT, GROUP BY, HAVING,
// aggregates, ORDER BY, LIMIT) answer 501 unsupported_on_gateway.

// SetDatabase installs an already-built database as the resident SQL
// store — shard mode boots one over its corpus slice instead of opening
// a file. Call before the server answers traffic (readiness gates on
// the epoch install that follows it).
func (s *Server) SetDatabase(db *vulndb.DB) {
	db.SetParallelism(s.cfg.Workers)
	s.db.Store(db)
}

// sqlEnabled reports whether the SQL surface (/api/query,
// /api/sqltable3) is available: a database path to open lazily, or a
// resident database injected via SetDatabase.
func (s *Server) sqlEnabled() bool {
	return s.cfg.DBPath != "" || s.db.Load() != nil
}

// database returns the resident database, lazily opening DBPath once
// when none was injected, so every /api/query shares one store and one
// plan cache.
func (s *Server) database() (*vulndb.DB, error) {
	if db := s.db.Load(); db != nil {
		return db, nil
	}
	s.dbOnce.Do(func() {
		db, err := vulndb.Open(s.cfg.DBPath)
		if err != nil {
			s.dbErr = err
			return
		}
		db.SetParallelism(s.cfg.Workers)
		s.db.Store(db)
	})
	if s.dbErr != nil {
		return nil, s.dbErr
	}
	return s.db.Load(), nil
}

// planCacheInfo reports the resident database's plan cache for /corpus,
// nil while no database has been opened (no query arrived yet, or the
// server runs without -db).
func (s *Server) planCacheInfo() *httpapi.PlanCacheInfo {
	db := s.db.Load()
	if db == nil {
		return nil
	}
	st := db.Store().PlanCacheStats()
	return &httpapi.PlanCacheInfo{
		Size:          st.Size,
		Capacity:      st.Capacity,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
	}
}

// QueryArgsFromJSON converts the JSON-typed positional arguments of a
// QueryRequest into engine values: numbers bind as INTEGER or FLOAT,
// strings as TEXT, booleans as BOOLEAN, null as NULL. Exported so the
// osdiv query subcommand binds CLI arguments identically.
func QueryArgsFromJSON(in []any) ([]relstore.Value, error) {
	out := make([]relstore.Value, 0, len(in))
	for i, a := range in {
		switch v := a.(type) {
		case nil:
			out = append(out, relstore.Null())
		case bool:
			out = append(out, relstore.Bool(v))
		case string:
			out = append(out, relstore.Text(v))
		case json.Number:
			if !strings.ContainsAny(v.String(), ".eE") {
				n, err := v.Int64()
				if err == nil {
					out = append(out, relstore.Int(n))
					continue
				}
			}
			f, err := v.Float64()
			if err != nil {
				return nil, fmt.Errorf("arg %d: not a number: %q", i, v.String())
			}
			out = append(out, relstore.Float(f))
		case float64:
			// A caller decoding without UseNumber lands here.
			if v == float64(int64(v)) {
				out = append(out, relstore.Int(int64(v)))
			} else {
				out = append(out, relstore.Float(v))
			}
		default:
			return nil, fmt.Errorf("arg %d: must be a number, string, boolean or null", i)
		}
	}
	return out, nil
}

// BuildQueryResult renders an engine result as the /api/query document.
// Exported so the osdiv query subcommand prints byte-identical output.
func BuildQueryResult(res *relstore.Result) httpapi.QueryResult {
	doc := httpapi.QueryResult{
		Columns: res.Columns,
		N:       len(res.Rows),
		Rows:    make([][]any, 0, len(res.Rows)),
	}
	if doc.Columns == nil {
		doc.Columns = []string{}
	}
	for _, row := range res.Rows {
		out := make([]any, len(row))
		for i, v := range row {
			out[i] = valueToJSON(v)
		}
		doc.Rows = append(doc.Rows, out)
	}
	return doc
}

// valueToJSON maps one cell onto its JSON encoding: numbers stay
// numbers, timestamps render RFC 3339, NULL is null.
func valueToJSON(v relstore.Value) any {
	switch v.Kind() {
	case relstore.KindInt:
		return v.AsInt()
	case relstore.KindFloat:
		return v.AsFloat()
	case relstore.KindText:
		return v.AsText()
	case relstore.KindBool:
		return v.AsBool()
	case relstore.KindTime:
		return v.AsTime().Format(time.RFC3339)
	default:
		return nil
	}
}

// errNoDatabase answers the SQL surface of a server booted without
// an imported database.
func errNoDatabase() *Error {
	return &Error{Status: http.StatusNotFound, Code: "no_database",
		Message: "server was not started over an imported database (osdiv -db ... serve)"}
}

// canonQuery decodes and vets the QueryRequest body. Anything but SELECT
// is rejected before the singleflight: relstore.ParseSelect refuses
// every statement that begins with a data or schema keyword, and the
// typed envelope tells the client which rule it broke.
func canonQuery(c *canonReq, p *params) {
	dec := json.NewDecoder(http.MaxBytesReader(c.w, c.r.Body, queryMaxBody))
	dec.UseNumber()
	if err := dec.Decode(&p.query); err != nil {
		c.fail(&Error{Status: http.StatusBadRequest, Code: "bad_body",
			Message: "request body is not a QueryRequest document: " + err.Error()})
		return
	}
	if strings.TrimSpace(p.query.SQL) == "" {
		c.fail(&Error{Status: http.StatusBadRequest, Code: "bad_query", Message: "missing required field sql"})
		return
	}
	sel, err := relstore.ParseSelect(p.query.SQL)
	if errors.Is(err, relstore.ErrNotSelect) {
		c.fail(&Error{Status: http.StatusBadRequest, Code: "unsupported_statement",
			Message: "only SELECT statements are served; data and schema changes go through import"})
		return
	}
	if err != nil {
		c.fail(&Error{Status: http.StatusBadRequest, Code: "bad_query", Message: err.Error()})
		return
	}
	if c.vec != nil {
		// The gateway forwards the arguments unbound: the shards bind them.
		if feature := unmergeable(sel); feature != "" {
			c.fail(errUnsupported(feature +
				" does not merge across row-partitioned shards; query an unsharded server or each backend directly"))
			return
		}
	} else if p.args, err = QueryArgsFromJSON(p.query.Args); err != nil {
		c.fail(errBadParam(err.Error()))
		return
	}
	argsKey, err := json.Marshal(p.query.Args)
	if err != nil {
		c.fail(errBadParam(err.Error()))
		return
	}
	c.vals = url.Values{"sql": {p.query.SQL}, "args": {string(argsKey)}}
}

// unmergeable names the feature that keeps a SELECT from scattering, or
// returns "" when its result is the concatenation of the shard results.
func unmergeable(sel *relstore.SelectStmt) string {
	switch {
	case sel.Distinct:
		return "SELECT DISTINCT"
	case len(sel.GroupBy) > 0:
		return "GROUP BY"
	case sel.Having != nil:
		return "HAVING"
	case len(sel.OrderBy) > 0:
		return "ORDER BY"
	case sel.Limit >= 0:
		return "LIMIT"
	case sel.HasAggregates():
		return "aggregate functions"
	}
	return ""
}

// buildQuery executes one SELECT against the resident database.
func buildQuery(in *input) (any, *Error) {
	db, err := in.s.database()
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "db_failed", Message: err.Error()}
	}
	res, err := db.Store().Query(in.query.SQL, in.args...)
	if err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Code: "bad_query", Message: err.Error()}
	}
	doc := BuildQueryResult(res)
	return &doc, nil
}

// buildSQLTable3 renders the SQL-path Table III over the resident
// database.
func buildSQLTable3(in *input) (any, *Error) {
	db, err := in.s.database()
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "db_failed", Message: err.Error()}
	}
	doc, err := BuildSQLTable3FromDB(db)
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Code: "sql_failed", Message: err.Error()}
	}
	return doc, nil
}

// mergeQuery concatenates the shard row sets in shard order.
func mergeQuery(legs []Leg, _ *params) (any, *Error) {
	docs, err := decodeLegs[httpapi.QueryResult](legs)
	if err != nil {
		return nil, err
	}
	merged := &httpapi.QueryResult{Columns: []string{}, Rows: [][]any{}}
	for i, doc := range docs {
		if i == 0 {
			if doc.Columns != nil {
				merged.Columns = doc.Columns
			}
		} else if !slices.Equal(merged.Columns, doc.Columns) {
			return nil, ErrMismatch(fmt.Sprintf(
				"backend %s: query columns %v, expected %v", legs[i].Backend, doc.Columns, merged.Columns))
		}
		merged.Rows = append(merged.Rows, doc.Rows...)
		merged.N += doc.N
	}
	return merged, nil
}
