package cpe

import "testing"

func BenchmarkParse22(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse22("cpe:/o:redhat:enterprise_linux:5:ga:server"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse23(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse23("cpe:2.3:o:redhat:enterprise_linux:5:ga:server:*:*:*:*:*"); err != nil {
			b.Fatal(err)
		}
	}
}
