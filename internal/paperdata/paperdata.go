// Package paperdata transcribes the published numbers of Garcia et al.,
// "OS Diversity for Intrusion Tolerance: Myth or Reality?" (DSN 2011),
// as Go data.
//
// The package plays two roles:
//
//   - calibration: internal/corpus constructs a synthetic NVD whose
//     derived statistics match these tables, so the full pipeline
//     (XML → SQL → analysis) reproduces the paper without access to the
//     2010 NVD snapshot;
//   - verification: the tests and the benchmark harness (bench_test.go)
//     compare the pipeline's outputs against these numbers cell by cell.
//
// Internal consistency of the transcription is enforced by tests (for
// example, Table V's history+observed splits must sum to Table III's
// remote column — they do, for all 28 pairs).
package paperdata

import (
	"osdiversity/internal/osmap"
)

// HistoryEndYear is the last year of the paper's "history" period;
// 2006..2010 form the "observed" period (§IV-C).
const HistoryEndYear = 2005

// StudyStartYear and StudyEndYear bound the publication dates in the
// data set ("1994 to (Sept.) 2010").
const (
	StudyStartYear = 1994
	StudyEndYear   = 2010
)

// DistinctValid is the number of distinct valid vulnerabilities
// (Table I, last row).
const DistinctValid = 1887

// DistinctInvalid gives the distinct counts of the removed entries
// (Table I, last row): Unknown, Unspecified, Disputed.
var DistinctInvalid = InvalidTotals{Unknown: 60, Unspecified: 165, Disputed: 8}

// TotalCollected is the overall number of entries the paper selected
// before validity filtering (§III-A: "we selected 2120 vulnerabilities").
const TotalCollected = 2120

// InvalidTotals carries the three invalid-entry categories.
type InvalidTotals struct {
	Unknown     int
	Unspecified int
	Disputed    int
}

// ValidCounts is Table I's "Valid" column: vulnerabilities per OS after
// removing Unknown/Unspecified/Disputed entries.
var ValidCounts = map[osmap.Distro]int{
	osmap.OpenBSD:     142,
	osmap.NetBSD:      126,
	osmap.FreeBSD:     258,
	osmap.OpenSolaris: 31,
	osmap.Solaris:     400,
	osmap.Debian:      201,
	osmap.Ubuntu:      87,
	osmap.RedHat:      369,
	osmap.Windows2000: 481,
	osmap.Windows2003: 343,
	osmap.Windows2008: 118,
}

// InvalidCounts is Table I's Unknown/Unspecified/Disputed columns per OS.
var InvalidCounts = map[osmap.Distro]InvalidTotals{
	osmap.OpenBSD:     {Unknown: 1, Unspecified: 1, Disputed: 1},
	osmap.NetBSD:      {Unknown: 0, Unspecified: 1, Disputed: 2},
	osmap.FreeBSD:     {Unknown: 0, Unspecified: 0, Disputed: 2},
	osmap.OpenSolaris: {Unknown: 0, Unspecified: 40, Disputed: 0},
	osmap.Solaris:     {Unknown: 39, Unspecified: 109, Disputed: 0},
	osmap.Debian:      {Unknown: 3, Unspecified: 1, Disputed: 0},
	osmap.Ubuntu:      {Unknown: 2, Unspecified: 1, Disputed: 0},
	osmap.RedHat:      {Unknown: 12, Unspecified: 8, Disputed: 1},
	osmap.Windows2000: {Unknown: 7, Unspecified: 27, Disputed: 5},
	osmap.Windows2003: {Unknown: 4, Unspecified: 30, Disputed: 3},
	osmap.Windows2008: {Unknown: 0, Unspecified: 3, Disputed: 0},
}

// ClassCounts carries one OS row of Table II.
type ClassCounts struct {
	Driver  int
	Kernel  int
	SysSoft int
	App     int
}

// NonApp returns the Thin Server count (everything but applications).
func (c ClassCounts) NonApp() int { return c.Driver + c.Kernel + c.SysSoft }

// ClassTable is Table II: vulnerabilities per OS component class.
var ClassTable = map[osmap.Distro]ClassCounts{
	osmap.OpenBSD:     {Driver: 2, Kernel: 75, SysSoft: 33, App: 32},
	osmap.NetBSD:      {Driver: 9, Kernel: 59, SysSoft: 32, App: 26},
	osmap.FreeBSD:     {Driver: 4, Kernel: 147, SysSoft: 54, App: 53},
	osmap.OpenSolaris: {Driver: 0, Kernel: 15, SysSoft: 9, App: 7},
	osmap.Solaris:     {Driver: 2, Kernel: 156, SysSoft: 114, App: 128},
	osmap.Debian:      {Driver: 1, Kernel: 24, SysSoft: 34, App: 142},
	osmap.Ubuntu:      {Driver: 2, Kernel: 22, SysSoft: 8, App: 55},
	osmap.RedHat:      {Driver: 5, Kernel: 89, SysSoft: 93, App: 182},
	osmap.Windows2000: {Driver: 3, Kernel: 143, SysSoft: 132, App: 203},
	osmap.Windows2003: {Driver: 1, Kernel: 95, SysSoft: 71, App: 176},
	osmap.Windows2008: {Driver: 0, Kernel: 42, SysSoft: 14, App: 62},
}

// RemoteTotals is the per-OS v(A) column of Table III's third filter:
// non-application vulnerabilities that are remotely exploitable
// (the Isolated Thin Server profile).
var RemoteTotals = map[osmap.Distro]int{
	osmap.OpenBSD:     60,
	osmap.NetBSD:      41,
	osmap.FreeBSD:     87,
	osmap.OpenSolaris: 6,
	osmap.Solaris:     103,
	osmap.Debian:      25,
	osmap.Ubuntu:      10,
	osmap.RedHat:      58,
	osmap.Windows2000: 178,
	osmap.Windows2003: 109,
	osmap.Windows2008: 26,
}

// PairCounts is one v(AB) cell of Table III under its three filters.
// The filters nest: All ⊇ NoApp ⊇ Remote.
type PairCounts struct {
	All    int // Fat Server: every shared vulnerability
	NoApp  int // Thin Server: application vulnerabilities removed
	Remote int // Isolated Thin Server: additionally local-only removed
}

// PairTable is Table III: shared vulnerabilities for all 55 OS pairs.
var PairTable = map[osmap.Pair]PairCounts{
	pair(osmap.OpenBSD, osmap.NetBSD):          {All: 40, NoApp: 32, Remote: 16},
	pair(osmap.OpenBSD, osmap.FreeBSD):         {All: 53, NoApp: 48, Remote: 32},
	pair(osmap.OpenBSD, osmap.OpenSolaris):     {All: 1, NoApp: 1, Remote: 0},
	pair(osmap.OpenBSD, osmap.Solaris):         {All: 12, NoApp: 10, Remote: 6},
	pair(osmap.OpenBSD, osmap.Debian):          {All: 2, NoApp: 2, Remote: 0},
	pair(osmap.OpenBSD, osmap.Ubuntu):          {All: 3, NoApp: 1, Remote: 0},
	pair(osmap.OpenBSD, osmap.RedHat):          {All: 10, NoApp: 5, Remote: 4},
	pair(osmap.OpenBSD, osmap.Windows2000):     {All: 3, NoApp: 3, Remote: 3},
	pair(osmap.OpenBSD, osmap.Windows2003):     {All: 2, NoApp: 2, Remote: 2},
	pair(osmap.OpenBSD, osmap.Windows2008):     {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.NetBSD, osmap.FreeBSD):          {All: 49, NoApp: 39, Remote: 24},
	pair(osmap.NetBSD, osmap.OpenSolaris):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.NetBSD, osmap.Solaris):          {All: 15, NoApp: 12, Remote: 8},
	pair(osmap.NetBSD, osmap.Debian):           {All: 3, NoApp: 2, Remote: 2},
	pair(osmap.NetBSD, osmap.Ubuntu):           {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.NetBSD, osmap.RedHat):           {All: 7, NoApp: 4, Remote: 2},
	pair(osmap.NetBSD, osmap.Windows2000):      {All: 3, NoApp: 3, Remote: 3},
	pair(osmap.NetBSD, osmap.Windows2003):      {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.NetBSD, osmap.Windows2008):      {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.FreeBSD, osmap.OpenSolaris):     {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.FreeBSD, osmap.Solaris):         {All: 21, NoApp: 15, Remote: 8},
	pair(osmap.FreeBSD, osmap.Debian):          {All: 7, NoApp: 4, Remote: 1},
	pair(osmap.FreeBSD, osmap.Ubuntu):          {All: 3, NoApp: 3, Remote: 0},
	pair(osmap.FreeBSD, osmap.RedHat):          {All: 20, NoApp: 13, Remote: 5},
	pair(osmap.FreeBSD, osmap.Windows2000):     {All: 4, NoApp: 4, Remote: 4},
	pair(osmap.FreeBSD, osmap.Windows2003):     {All: 2, NoApp: 2, Remote: 2},
	pair(osmap.FreeBSD, osmap.Windows2008):     {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.OpenSolaris, osmap.Solaris):     {All: 27, NoApp: 22, Remote: 6},
	pair(osmap.OpenSolaris, osmap.Debian):      {All: 1, NoApp: 1, Remote: 0},
	pair(osmap.OpenSolaris, osmap.Ubuntu):      {All: 1, NoApp: 1, Remote: 0},
	pair(osmap.OpenSolaris, osmap.RedHat):      {All: 1, NoApp: 1, Remote: 0},
	pair(osmap.OpenSolaris, osmap.Windows2000): {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.OpenSolaris, osmap.Windows2003): {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.OpenSolaris, osmap.Windows2008): {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Solaris, osmap.Debian):          {All: 4, NoApp: 4, Remote: 2},
	pair(osmap.Solaris, osmap.Ubuntu):          {All: 2, NoApp: 2, Remote: 0},
	pair(osmap.Solaris, osmap.RedHat):          {All: 13, NoApp: 8, Remote: 4},
	pair(osmap.Solaris, osmap.Windows2000):     {All: 9, NoApp: 3, Remote: 3},
	pair(osmap.Solaris, osmap.Windows2003):     {All: 7, NoApp: 1, Remote: 1},
	pair(osmap.Solaris, osmap.Windows2008):     {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Debian, osmap.Ubuntu):           {All: 12, NoApp: 6, Remote: 2},
	pair(osmap.Debian, osmap.RedHat):           {All: 61, NoApp: 26, Remote: 11},
	pair(osmap.Debian, osmap.Windows2000):      {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.Debian, osmap.Windows2003):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Debian, osmap.Windows2008):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Ubuntu, osmap.RedHat):           {All: 25, NoApp: 8, Remote: 1},
	pair(osmap.Ubuntu, osmap.Windows2000):      {All: 1, NoApp: 1, Remote: 1},
	pair(osmap.Ubuntu, osmap.Windows2003):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Ubuntu, osmap.Windows2008):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.RedHat, osmap.Windows2000):      {All: 2, NoApp: 1, Remote: 1},
	pair(osmap.RedHat, osmap.Windows2003):      {All: 1, NoApp: 0, Remote: 0},
	pair(osmap.RedHat, osmap.Windows2008):      {All: 0, NoApp: 0, Remote: 0},
	pair(osmap.Windows2000, osmap.Windows2003): {All: 253, NoApp: 116, Remote: 81},
	pair(osmap.Windows2000, osmap.Windows2008): {All: 70, NoApp: 27, Remote: 14},
	pair(osmap.Windows2003, osmap.Windows2008): {All: 95, NoApp: 39, Remote: 18},
}

// PartCounts is one row of Table IV: the component-class breakdown of an
// Isolated Thin Server pair's shared vulnerabilities.
type PartCounts struct {
	Driver  int
	Kernel  int
	SysSoft int
}

// PartTable is Table IV. Pairs absent from the map shared nothing under
// the Isolated Thin Server profile.
var PartTable = map[osmap.Pair]PartCounts{
	pair(osmap.Windows2000, osmap.Windows2003): {Driver: 0, Kernel: 40, SysSoft: 41},
	pair(osmap.OpenBSD, osmap.FreeBSD):         {Driver: 1, Kernel: 14, SysSoft: 17},
	pair(osmap.NetBSD, osmap.FreeBSD):          {Driver: 2, Kernel: 13, SysSoft: 9},
	pair(osmap.Windows2003, osmap.Windows2008): {Driver: 0, Kernel: 10, SysSoft: 8},
	pair(osmap.OpenBSD, osmap.NetBSD):          {Driver: 1, Kernel: 8, SysSoft: 7},
	pair(osmap.Windows2000, osmap.Windows2008): {Driver: 0, Kernel: 8, SysSoft: 6},
	pair(osmap.Debian, osmap.RedHat):           {Driver: 0, Kernel: 5, SysSoft: 6},
	pair(osmap.FreeBSD, osmap.Solaris):         {Driver: 0, Kernel: 5, SysSoft: 3},
	pair(osmap.NetBSD, osmap.Solaris):          {Driver: 0, Kernel: 4, SysSoft: 4},
	pair(osmap.OpenBSD, osmap.Solaris):         {Driver: 0, Kernel: 5, SysSoft: 1},
	pair(osmap.OpenSolaris, osmap.Solaris):     {Driver: 0, Kernel: 3, SysSoft: 3},
	pair(osmap.FreeBSD, osmap.RedHat):          {Driver: 0, Kernel: 1, SysSoft: 4},
	pair(osmap.FreeBSD, osmap.Windows2000):     {Driver: 1, Kernel: 3, SysSoft: 0},
	pair(osmap.OpenBSD, osmap.RedHat):          {Driver: 0, Kernel: 1, SysSoft: 3},
	pair(osmap.Solaris, osmap.RedHat):          {Driver: 0, Kernel: 3, SysSoft: 1},
	pair(osmap.NetBSD, osmap.Windows2000):      {Driver: 1, Kernel: 2, SysSoft: 0},
	pair(osmap.OpenBSD, osmap.Windows2000):     {Driver: 0, Kernel: 3, SysSoft: 0},
	pair(osmap.Solaris, osmap.Windows2000):     {Driver: 0, Kernel: 3, SysSoft: 0},
	pair(osmap.Solaris, osmap.Debian):          {Driver: 0, Kernel: 1, SysSoft: 1},
	pair(osmap.OpenBSD, osmap.Windows2003):     {Driver: 0, Kernel: 2, SysSoft: 0},
	pair(osmap.FreeBSD, osmap.Windows2003):     {Driver: 0, Kernel: 2, SysSoft: 0},
	pair(osmap.Debian, osmap.Ubuntu):           {Driver: 0, Kernel: 0, SysSoft: 2},
	pair(osmap.NetBSD, osmap.Debian):           {Driver: 0, Kernel: 0, SysSoft: 2},
	pair(osmap.NetBSD, osmap.RedHat):           {Driver: 0, Kernel: 0, SysSoft: 2},
	pair(osmap.NetBSD, osmap.Windows2003):      {Driver: 0, Kernel: 1, SysSoft: 0},
	pair(osmap.NetBSD, osmap.Windows2008):      {Driver: 0, Kernel: 1, SysSoft: 0},
	pair(osmap.OpenBSD, osmap.Windows2008):     {Driver: 0, Kernel: 1, SysSoft: 0},
	pair(osmap.FreeBSD, osmap.Windows2008):     {Driver: 0, Kernel: 1, SysSoft: 0},
	pair(osmap.Solaris, osmap.Windows2003):     {Driver: 0, Kernel: 1, SysSoft: 0},
	pair(osmap.FreeBSD, osmap.Debian):          {Driver: 0, Kernel: 0, SysSoft: 1},
	pair(osmap.Debian, osmap.Windows2000):      {Driver: 0, Kernel: 0, SysSoft: 1},
	pair(osmap.Ubuntu, osmap.RedHat):           {Driver: 0, Kernel: 0, SysSoft: 1},
	pair(osmap.Ubuntu, osmap.Windows2000):      {Driver: 0, Kernel: 0, SysSoft: 1},
	pair(osmap.RedHat, osmap.Windows2000):      {Driver: 0, Kernel: 0, SysSoft: 1},
}

// PeriodCounts is one cell of Table V: shared Isolated-Thin-Server
// vulnerabilities split into the history (1994-2005) and observed
// (2006-2010) periods.
type PeriodCounts struct {
	History  int
	Observed int
}

// PeriodTable is Table V, covering the 8 history-eligible distributions
// (Ubuntu, OpenSolaris and Windows 2008 are excluded for lack of history
// data).
var PeriodTable = map[osmap.Pair]PeriodCounts{
	pair(osmap.OpenBSD, osmap.NetBSD):          {History: 9, Observed: 7},
	pair(osmap.OpenBSD, osmap.FreeBSD):         {History: 25, Observed: 7},
	pair(osmap.OpenBSD, osmap.Solaris):         {History: 6, Observed: 0},
	pair(osmap.OpenBSD, osmap.Debian):          {History: 0, Observed: 0},
	pair(osmap.OpenBSD, osmap.RedHat):          {History: 4, Observed: 0},
	pair(osmap.OpenBSD, osmap.Windows2000):     {History: 2, Observed: 1},
	pair(osmap.OpenBSD, osmap.Windows2003):     {History: 1, Observed: 1},
	pair(osmap.NetBSD, osmap.FreeBSD):          {History: 15, Observed: 9},
	pair(osmap.NetBSD, osmap.Solaris):          {History: 8, Observed: 0},
	pair(osmap.NetBSD, osmap.Debian):           {History: 2, Observed: 0},
	pair(osmap.NetBSD, osmap.RedHat):           {History: 2, Observed: 0},
	pair(osmap.NetBSD, osmap.Windows2000):      {History: 2, Observed: 1},
	pair(osmap.NetBSD, osmap.Windows2003):      {History: 0, Observed: 1},
	pair(osmap.FreeBSD, osmap.Solaris):         {History: 8, Observed: 0},
	pair(osmap.FreeBSD, osmap.Debian):          {History: 1, Observed: 0},
	pair(osmap.FreeBSD, osmap.RedHat):          {History: 5, Observed: 0},
	pair(osmap.FreeBSD, osmap.Windows2000):     {History: 3, Observed: 1},
	pair(osmap.FreeBSD, osmap.Windows2003):     {History: 1, Observed: 1},
	pair(osmap.Solaris, osmap.Debian):          {History: 2, Observed: 0},
	pair(osmap.Solaris, osmap.RedHat):          {History: 3, Observed: 1},
	pair(osmap.Solaris, osmap.Windows2000):     {History: 3, Observed: 0},
	pair(osmap.Solaris, osmap.Windows2003):     {History: 1, Observed: 0},
	pair(osmap.Debian, osmap.RedHat):           {History: 10, Observed: 1},
	pair(osmap.Debian, osmap.Windows2000):      {History: 0, Observed: 1},
	pair(osmap.Debian, osmap.Windows2003):      {History: 0, Observed: 0},
	pair(osmap.RedHat, osmap.Windows2000):      {History: 0, Observed: 1},
	pair(osmap.RedHat, osmap.Windows2003):      {History: 0, Observed: 0},
	pair(osmap.Windows2000, osmap.Windows2003): {History: 35, Observed: 46},
}

// SpecialCVE describes one of the three named multi-OS vulnerabilities
// of §IV-B, with the cluster footprint and extra (unclustered) products
// chosen so that every pairwise budget of Tables III/IV/V is respected.
type SpecialCVE struct {
	ID            string
	Year          int
	Clusters      []osmap.Distro
	ExtraProducts []string // CPE 2.2 URIs of unclustered products
	Summary       string
}

// SpecialCVEs are the named vulnerabilities: the DNS cache poisoning and
// DHCP flaws shared by six products and the TCP design flaw shared by
// nine. All three are remotely exploitable protocol flaws that the
// paper's taxonomy places in the Kernel class.
var SpecialCVEs = []SpecialCVE{
	{
		ID:   "CVE-2007-5365",
		Year: 2007,
		Clusters: []osmap.Distro{
			osmap.OpenBSD, osmap.NetBSD, osmap.FreeBSD,
		},
		ExtraProducts: []string{
			"cpe:/o:ibm:aix:5.3", "cpe:/o:hp:hp-ux:11.11", "cpe:/o:suse:suse_linux:10.1",
		},
		Summary: "Stack-based buffer overflow in the DHCP implementation option parsing allows remote attackers to execute arbitrary code via a crafted reply.",
	},
	{
		ID:   "CVE-2008-1447",
		Year: 2008,
		Clusters: []osmap.Distro{
			osmap.OpenBSD, osmap.NetBSD, osmap.FreeBSD,
		},
		ExtraProducts: []string{
			"cpe:/o:microsoft:windows_xp::sp3", "cpe:/o:microsoft:windows_nt:4.0", "cpe:/o:apple:mac_os_x:10.5",
		},
		Summary: "The DNS protocol implementation does not sufficiently randomize transaction identifiers and source ports, which allows remote attackers to conduct cache poisoning attacks.",
	},
	{
		ID:   "CVE-2008-4609",
		Year: 2008,
		Clusters: []osmap.Distro{
			osmap.OpenBSD, osmap.NetBSD, osmap.FreeBSD, osmap.Windows2000, osmap.Windows2003,
		},
		ExtraProducts: []string{
			"cpe:/o:microsoft:windows_xp::sp3", "cpe:/o:microsoft:windows_vista", "cpe:/o:microsoft:windows_nt:4.0", "cpe:/o:apple:mac_os_x:10.5",
		},
		Summary: "The TCP implementation state management design allows remote attackers to cause a denial of service (connection queue exhaustion) via crafted segments, a design-level issue of the TCP protocol.",
	},
}

// KWiseProducts gives the §IV-B statement targets at product
// granularity: the number of distinct vulnerabilities affecting at least
// k products. (The paper's cluster-level Table III is arithmetically
// incompatible with a nine-cluster vulnerability, so the k-wise sentences
// are reproduced at product level.)
var KWiseProducts = map[int]int{
	3: 285,
	4: 102,
	5: 9,
	6: 3, // the two six-product CVEs plus the nine-product CVE
	9: 1, // CVE-2008-4609
}

// ReleaseOverlap keys Table VI by the printed release labels.
type ReleaseOverlap struct {
	A, B string // e.g. "Debian3.0", "RedHat5.0"
}

// ReleaseTable is Table VI: shared vulnerabilities between specific
// (OS, release) pairs of Debian and RedHat under the Isolated Thin
// Server profile.
var ReleaseTable = map[ReleaseOverlap]int{
	{"Debian2.1", "Debian3.0"}:  0,
	{"Debian2.1", "Debian4.0"}:  0,
	{"Debian3.0", "Debian4.0"}:  1,
	{"RedHat6.2*", "RedHat4.0"}: 0,
	{"RedHat6.2*", "RedHat5.0"}: 0,
	{"RedHat4.0", "RedHat5.0"}:  1,
	{"Debian2.1", "RedHat6.2*"}: 0,
	{"Debian2.1", "RedHat4.0"}:  0,
	{"Debian2.1", "RedHat5.0"}:  0,
	{"Debian3.0", "RedHat6.2*"}: 0,
	{"Debian3.0", "RedHat4.0"}:  0,
	{"Debian3.0", "RedHat5.0"}:  0,
	{"Debian4.0", "RedHat6.2*"}: 0,
	{"Debian4.0", "RedHat4.0"}:  1,
	{"Debian4.0", "RedHat5.0"}:  1,
}

// Figure3Set names one replica configuration of Figure 3.
type Figure3Set struct {
	Name    string
	Members []osmap.Distro // empty means "four identical Debian replicas"
}

// Figure3Sets are the five configurations the paper charts.
var Figure3Sets = []Figure3Set{
	{Name: "Debian", Members: []osmap.Distro{osmap.Debian}},
	{Name: "Set1", Members: []osmap.Distro{osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD}},
	{Name: "Set2", Members: []osmap.Distro{osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.NetBSD}},
	{Name: "Set3", Members: []osmap.Distro{osmap.Windows2003, osmap.Solaris, osmap.RedHat, osmap.NetBSD}},
	{Name: "Set4", Members: []osmap.Distro{osmap.OpenBSD, osmap.NetBSD, osmap.Debian, osmap.RedHat}},
}

// Figure3Expected gives the history/observed bar heights *derivable from
// Table V* (pair sums; the Debian bar is its remote total split by
// period). The printed figure differs slightly on some bars (11 vs 10
// for Set1's history, for instance). Our pipeline is checked against
// these derived values.
var Figure3Expected = map[string]PeriodCounts{
	"Debian": {History: 16, Observed: 9},
	"Set1":   {History: 10, Observed: 1},
	"Set2":   {History: 13, Observed: 1},
	"Set3":   {History: 14, Observed: 2},
	"Set4":   {History: 27, Observed: 8},
}

// FilterReductionPct is §IV-E(1): moving from Fat Server to Isolated
// Thin Server reduces common vulnerabilities "by 56% on average".
const FilterReductionPct = 56

// ClassSharesDistinct is the percentage row of Table II. It is computed
// over the 1887 *distinct* vulnerabilities (each counted once regardless
// of how many OSes it affects), not over the per-OS incidences — the
// incidence-based shares differ because sharing is class-skewed (Windows
// application overlap is large). Order: Driver, Kernel, SysSoft, App.
var ClassSharesDistinct = [4]float64{1.4, 35.5, 23.2, 39.9}

// YearWeights approximates the Figure 2 curves: relative publication
// volume per year per OS. The paper prints no numbers for Figure 2, so
// these weights encode its qualitative shape (family-correlated peaks,
// BSD/Linux decline after 2005, first-release cutoffs) and are used only
// to distribute the years the harder constraints leave free.
var YearWeights = map[osmap.Distro][]YearWeight{
	osmap.OpenBSD: {
		{1997, 2}, {1998, 4}, {1999, 6}, {2000, 10}, {2001, 14}, {2002, 20},
		{2003, 16}, {2004, 18}, {2005, 14}, {2006, 12}, {2007, 9}, {2008, 7},
		{2009, 6}, {2010, 4},
	},
	osmap.NetBSD: {
		{1997, 1}, {1998, 3}, {1999, 5}, {2000, 8}, {2001, 11}, {2002, 14},
		{2003, 13}, {2004, 13}, {2005, 11}, {2006, 10}, {2007, 8}, {2008, 7},
		{2009, 5}, {2010, 4},
	},
	osmap.FreeBSD: {
		{1996, 2}, {1997, 5}, {1998, 8}, {1999, 12}, {2000, 22}, {2001, 24},
		{2002, 30}, {2003, 24}, {2004, 28}, {2005, 26}, {2006, 22}, {2007, 18},
		{2008, 16}, {2009, 12}, {2010, 9},
	},
	osmap.OpenSolaris: {
		{2008, 12}, {2009, 14}, {2010, 5},
	},
	osmap.Solaris: {
		{1994, 6}, {1995, 8}, {1996, 10}, {1997, 12}, {1998, 14}, {1999, 18},
		{2000, 22}, {2001, 26}, {2002, 30}, {2003, 32}, {2004, 38}, {2005, 44},
		{2006, 40}, {2007, 36}, {2008, 28}, {2009, 22}, {2010, 14},
	},
	osmap.Debian: {
		{1997, 2}, {1998, 6}, {1999, 10}, {2000, 14}, {2001, 20}, {2002, 26},
		{2003, 22}, {2004, 24}, {2005, 20}, {2006, 16}, {2007, 12}, {2008, 10},
		{2009, 8}, {2010, 6},
	},
	osmap.Ubuntu: {
		{2004, 2}, {2005, 10}, {2006, 18}, {2007, 16}, {2008, 14}, {2009, 15},
		{2010, 12},
	},
	osmap.RedHat: {
		{1997, 4}, {1998, 8}, {1999, 16}, {2000, 28}, {2001, 34}, {2002, 44},
		{2003, 36}, {2004, 38}, {2005, 32}, {2006, 28}, {2007, 24}, {2008, 22},
		{2009, 18}, {2010, 14},
	},
	osmap.Windows2000: {
		{1997, 3}, {1998, 4}, {1999, 16}, {2000, 34}, {2001, 40}, {2002, 52},
		{2003, 46}, {2004, 50}, {2005, 56}, {2006, 48}, {2007, 40}, {2008, 36},
		{2009, 30}, {2010, 22},
	},
	osmap.Windows2003: {
		{2003, 14}, {2004, 30}, {2005, 46}, {2006, 52}, {2007, 50}, {2008, 44},
		{2009, 38}, {2010, 30},
	},
	osmap.Windows2008: {
		{2008, 52}, {2009, 42}, {2010, 24},
	},
}

// YearWeight is one (year, relative weight) point of a Figure 2 curve.
type YearWeight struct {
	Year   int
	Weight int
}

// Windows2000PreReleaseEntries is the §IV-A observation that Windows
// 2000 appears in seven entries published before 1999, sharing
// vulnerabilities with Windows NT.
const Windows2000PreReleaseEntries = 7

// InvalidSharePlan describes how the removed (invalid) entries are
// distributed over OS sets so that Table I's per-OS columns and distinct
// totals hold simultaneously (the columns over-count shared entries).
// Each element is an OS set with a multiplicity.
type InvalidSharePlan struct {
	Members []osmap.Distro
	Count   int
}

// UnknownShares reconciles the Unknown column (68 incidences, 60
// distinct).
var UnknownShares = []InvalidSharePlan{
	{Members: []osmap.Distro{osmap.Windows2000, osmap.Windows2003}, Count: 4},
	{Members: []osmap.Distro{osmap.Solaris, osmap.RedHat}, Count: 4},
}

// UnspecifiedShares reconciles the Unspecified column (221 incidences,
// 165 distinct). The OpenSolaris column is almost entirely shared with
// Solaris, matching the paper's remark that 60% of removed entries
// concern the Solaris family.
var UnspecifiedShares = []InvalidSharePlan{
	{Members: []osmap.Distro{osmap.OpenSolaris, osmap.Solaris}, Count: 40},
	{Members: []osmap.Distro{osmap.Windows2000, osmap.Windows2003}, Count: 13},
	{Members: []osmap.Distro{osmap.Windows2003, osmap.Windows2008}, Count: 3},
}

// DisputedShares reconciles the Disputed column (14 incidences, 8
// distinct).
var DisputedShares = []InvalidSharePlan{
	{Members: []osmap.Distro{osmap.Windows2000, osmap.Windows2003}, Count: 3},
	{Members: []osmap.Distro{osmap.NetBSD, osmap.FreeBSD}, Count: 2},
	{Members: []osmap.Distro{osmap.OpenBSD, osmap.Windows2000}, Count: 1},
}

func pair(a, b osmap.Distro) osmap.Pair { return osmap.MakePair(a, b) }
