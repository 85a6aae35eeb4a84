package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"osdiversity"
	"osdiversity/internal/httpapi"
)

// specFromWire maps the wire request onto the facade spec (the field
// sets line up one to one).
func specFromWire(req httpapi.RecommendRequest) osdiversity.RecommendSpec {
	return osdiversity.RecommendSpec{
		Universe: req.Universe,
		F:        req.F,
		Windows:  req.Windows,
		FromYear: req.FromYear,
		ToYear:   req.ToYear,
		Interval: req.Interval,
		Trials:   req.Trials,
		Seed:     req.Seed,
		Beam:     req.Beam,
		Top:      req.Top,
	}
}

// CanonRecommend canonicalizes a recommend request against the corpus
// (defaults filled, years clamped to the corpus range), so cosmetically
// different requests share one cache entry and one computation.
func CanonRecommend(a *osdiversity.Analysis, req httpapi.RecommendRequest) (httpapi.RecommendRequest, error) {
	spec, err := a.CanonRecommendSpec(specFromWire(req))
	if err != nil {
		return httpapi.RecommendRequest{}, err
	}
	return httpapi.RecommendRequest{
		Universe: spec.Universe,
		F:        spec.F,
		Windows:  spec.Windows,
		FromYear: spec.FromYear,
		ToYear:   spec.ToYear,
		Interval: spec.Interval,
		Trials:   spec.Trials,
		Seed:     spec.Seed,
		Beam:     spec.Beam,
		Top:      spec.Top,
	}, nil
}

// BuildRecommend runs the dynamic-diversity search and shapes the
// /api/recommend document. The CLI prints exactly these bytes.
func BuildRecommend(a *osdiversity.Analysis, req httpapi.RecommendRequest) (httpapi.Recommend, error) {
	rec, err := a.Recommend(specFromWire(req))
	if err != nil {
		return httpapi.Recommend{}, err
	}
	doc := httpapi.Recommend{
		Universe:   append([]string{}, rec.Spec.Universe...),
		F:          rec.Spec.F,
		Replicas:   rec.Replicas,
		Windows:    rec.Spec.Windows,
		FromYear:   rec.Spec.FromYear,
		ToYear:     rec.Spec.ToYear,
		Interval:   rec.Spec.Interval,
		Trials:     rec.Spec.Trials,
		Seed:       rec.Spec.Seed,
		Beam:       rec.Spec.Beam,
		Evaluated:  rec.Evaluated,
		Candidates: []httpapi.RecommendCandidate{},
		Validated:  rec.Validated,
		Violations: append([]string{}, rec.Violations...),
	}
	for i, c := range rec.Candidates {
		rc := httpapi.RecommendCandidate{
			Rank:     i + 1,
			Survival: c.Survival,
			Cost:     c.Cost,
			Windows:  []httpapi.RecommendWindow{},
		}
		for _, w := range c.Windows {
			rc.Windows = append(rc.Windows, httpapi.RecommendWindow{
				FromYear: w.FromYear,
				ToYear:   w.ToYear,
				OSes:     append([]string{}, w.OSes...),
				Cost:     w.Cost,
			})
		}
		doc.Candidates = append(doc.Candidates, rc)
	}
	return doc, nil
}

// canonRecommend decodes a POST /api/recommend body and canonicalizes
// it, so cosmetically different specs share a computation. An empty
// body runs the all-defaults search.
func canonRecommend(c *canonReq, p *params) {
	var req httpapi.RecommendRequest
	dec := json.NewDecoder(http.MaxBytesReader(c.w, c.r.Body, queryMaxBody))
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		c.fail(&Error{Status: http.StatusBadRequest, Code: "bad_body",
			Message: "request body is not a RecommendRequest document: " + err.Error()})
		return
	}
	canon, err := CanonRecommend(c.a, req)
	if err != nil {
		c.fail(errBadParam(err.Error()))
		return
	}
	key, err := json.Marshal(canon)
	if err != nil {
		c.fail(errBadParam(err.Error()))
		return
	}
	p.spec = canon
	c.set("spec", string(key))
}
