package cve

import (
	"testing"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cvss"
)

func date(y int) time.Time { return time.Date(y, time.June, 15, 0, 0, 0, 0, time.UTC) }

func sampleEntry() *Entry {
	return &Entry{
		ID:        MustID("CVE-2008-4609"),
		Published: date(2008),
		Summary:   "The TCP implementation allows remote attackers to cause a denial of service.",
		CVSS:      cvss.MustParse("AV:N/AC:M/Au:N/C:N/I:N/A:C"),
		Products: []cpe.Name{
			cpe.MustParse("cpe:/o:openbsd:openbsd:4.2"),
			cpe.MustParse("cpe:/o:microsoft:windows_2000::sp4"),
			cpe.MustParse("cpe:/a:isc:bind:9.4"),
		},
	}
}

func TestEntryRemote(t *testing.T) {
	e := sampleEntry()
	if !e.Remote() {
		t.Error("network-vector entry not reported remote")
	}
	e.CVSS = cvss.MustParse("AV:L/AC:L/Au:N/C:C/I:C/A:C")
	if e.Remote() {
		t.Error("local-vector entry reported remote")
	}
	e.CVSS = cvss.MustParse("AV:A/AC:L/Au:N/C:P/I:N/A:N")
	if !e.Remote() {
		t.Error("adjacent-network entry not reported remote (paper counts it as remote)")
	}
	e.CVSS = cvss.Vector{}
	if e.Remote() {
		t.Error("entry without CVSS data must be conservatively local")
	}
}

func TestEntryOSProducts(t *testing.T) {
	e := sampleEntry()
	if !e.HasOSProduct() {
		t.Fatal("entry with /o products reports HasOSProduct = false")
	}
	appOnly := &Entry{
		ID:        MustID("CVE-2009-0001"),
		Published: date(2009),
		Products:  []cpe.Name{cpe.MustParse("cpe:/a:mozilla:firefox:3.0")},
	}
	if appOnly.HasOSProduct() {
		t.Error("application-only entry reports HasOSProduct = true")
	}
}

func TestEntryAffectsProduct(t *testing.T) {
	e := sampleEntry()
	if !e.AffectsProduct("openbsd", "openbsd") {
		t.Error("AffectsProduct misses listed product")
	}
	if e.AffectsProduct("sun", "solaris") {
		t.Error("AffectsProduct reports unlisted product")
	}
}

func TestEntryValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Entry)
		wantErr bool
	}{
		{name: "valid", mutate: func(*Entry) {}},
		{name: "zero id", mutate: func(e *Entry) { e.ID = ID{} }, wantErr: true},
		{name: "no date", mutate: func(e *Entry) { e.Published = time.Time{} }, wantErr: true},
		{name: "no products", mutate: func(e *Entry) { e.Products = nil }, wantErr: true},
		{name: "duplicate product", mutate: func(e *Entry) {
			e.Products = append(e.Products, e.Products[0])
		}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := sampleEntry()
			tt.mutate(e)
			err := e.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEntryClone(t *testing.T) {
	e := sampleEntry()
	dup := e.Clone()
	dup.Products[0] = cpe.MustParse("cpe:/o:netbsd:netbsd:4.0")
	dup.Summary = "changed"
	if e.Products[0].Vendor != "openbsd" {
		t.Error("mutating clone products affected original")
	}
	if e.Summary == dup.Summary {
		t.Error("mutating clone summary affected original")
	}
}
