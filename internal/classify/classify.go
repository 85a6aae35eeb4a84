// Package classify assigns every vulnerability to one of the paper's four
// OS component classes — Driver, Kernel, System Software, Application —
// and detects the editorial validity tags (Unknown, Unspecified,
// **DISPUTED**) that exclude an entry from the study.
//
// The paper performed this classification by hand over 1887 descriptions.
// The hand judgements themselves were never published, so this package
// encodes the *criteria* the paper states in §III-B as an ordered,
// transparent rule table over description text. The synthetic corpus writes
// descriptions from the same vocabulary, so the full pipeline — text in,
// class out — is exercised end to end.
package classify

import (
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"osdiversity/internal/cve"
)

// Class is an OS component class per the paper's §III-B taxonomy.
type Class int

// The four classes, plus ClassUnclassified for text no rule matches.
const (
	ClassUnclassified Class = iota
	ClassDriver
	ClassKernel
	ClassSysSoft
	ClassApplication
)

// String returns the display name used in the paper's tables.
func (c Class) String() string {
	switch c {
	case ClassDriver:
		return "Driver"
	case ClassKernel:
		return "Kernel"
	case ClassSysSoft:
		return "Sys. Soft."
	case ClassApplication:
		return "App."
	default:
		return "Unclassified"
	}
}

// Validity is the editorial status of an NVD entry.
type Validity int

// Validity states. Only Valid entries enter the study (paper §III-A).
const (
	Valid Validity = iota
	Unknown
	Unspecified
	Disputed
)

// String returns the display name used in the paper's Table I.
func (v Validity) String() string {
	switch v {
	case Valid:
		return "Valid"
	case Unknown:
		return "Unknown"
	case Unspecified:
		return "Unspecified"
	case Disputed:
		return "Disputed"
	default:
		return "?"
	}
}

// EntryValidity inspects an entry's summary for the NVD editorial tags
// the paper filtered on. Disputed dominates (vendors contest existence),
// then Unknown, then Unspecified, mirroring the paper's manual pass.
//
// Tags match case-insensitively, in one pass over the summary that
// checks a tag only where one can start. An ASCII summary is matched in
// place; any other is lowercased first, since Unicode folding can spell
// a tag with non-ASCII letters (the Kelvin sign lowercases to "k", "İ"
// to "i").
func EntryValidity(e *cve.Entry) Validity {
	s := e.Summary
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	unknown, unspecified := false, false
	for i := 0; i < len(s); i++ {
		if !tagStart[s[i]] {
			continue
		}
		t := s[i:]
		switch s[i] | 0x20 {
		case '*':
			if hasPrefixFold(t, "** disputed **") {
				return Disputed
			}
		case 'u':
			unknown = unknown || hasPrefixFold(t, "unknown impact") || hasPrefixFold(t, "unknown attack vectors")
			unspecified = unspecified || hasPrefixFold(t, "unspecified other impact")
		case 'v':
			unspecified = unspecified || hasPrefixFold(t, "via unspecified vectors")
		}
	}
	switch {
	// The leading editorial tag decides before the weaker in-text hints:
	// "Unspecified vulnerability ... has unknown impact" is Unspecified.
	case hasPrefixFold(s, "unknown vulnerability"):
		return Unknown
	case hasPrefixFold(s, "unspecified vulnerability"):
		return Unspecified
	case unknown:
		return Unknown
	case unspecified:
		return Unspecified
	default:
		return Valid
	}
}

// tagStart marks the first bytes of the editorial tags, in either case.
var tagStart = [256]bool{'*': true, 'u': true, 'U': true, 'v': true, 'V': true}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// hasPrefixFold reports whether s starts with the lowercase ASCII
// prefix, ignoring ASCII case.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// Rule is one classification rule: if any keyword occurs in the
// description (on word boundaries), the rule assigns its class.
type Rule struct {
	// Name identifies the rule in explanations, e.g. "kernel/netstack".
	Name string
	// Class assigned when the rule fires.
	Class Class
	// Keywords matched case-insensitively on word boundaries. Multi-word
	// keywords match as phrases.
	Keywords []string
}

// Classifier applies an ordered rule table. Construct with
// NewClassifier; the zero value classifies nothing.
//
// Rule-table results are memoized per summary text: corpus descriptions
// draw on a small template vocabulary, so at 100k-entry scale the same
// summary recurs thousands of times and the keyword scan dominated
// ingestion. The memo is concurrency-safe (digestion shards entries
// across worker pools) and caches the deterministic rule-table outcome.
// Insertion stops at memoMaxEntries so a corpus of mostly-unique
// summaries (a real NVD feed) bounds the map instead of mirroring the
// whole feed; lookups keep working either way.
type Classifier struct {
	rules    []Rule
	memo     sync.Map // summary string -> ruleHit
	memoSize atomic.Int64
}

// memoMaxEntries caps the per-summary memo. The synthetic template
// vocabulary needs a few hundred entries; the cap only matters for
// unique-summary corpora, where memoization cannot win anyway.
const memoMaxEntries = 1 << 16

// ruleHit is one memoized rule-table outcome.
type ruleHit struct {
	class Class
	rule  string
}

// NewClassifier returns a classifier loaded with the default rule table
// derived from the paper's §III-B criteria.
func NewClassifier() *Classifier {
	return &Classifier{rules: defaultRules}
}

// Classify assigns an entry to a component class: the first rule (in
// table order) with a keyword hit, ClassUnclassified if nothing matches.
func (c *Classifier) Classify(e *cve.Entry) Class {
	class, _ := c.ClassifyExplained(e)
	return class
}

// ClassifyExplained is Classify but also reports which rule fired (""
// when unclassified).
func (c *Classifier) ClassifyExplained(e *cve.Entry) (Class, string) {
	if c == nil {
		return ClassUnclassified, ""
	}
	if hit, ok := c.memo.Load(e.Summary); ok {
		h := hit.(ruleHit)
		return h.class, h.rule
	}
	h := c.applyRules(e.Summary)
	if c.memoSize.Load() < memoMaxEntries {
		if _, loaded := c.memo.LoadOrStore(e.Summary, h); !loaded {
			c.memoSize.Add(1)
		}
	}
	return h.class, h.rule
}

// applyRules runs the rule table over one summary.
func (c *Classifier) applyRules(summary string) ruleHit {
	text := foldText(summary)
	for _, r := range c.rules {
		for _, kw := range r.Keywords {
			if containsWord(text, kw) {
				return ruleHit{class: r.Class, rule: r.Name}
			}
		}
	}
	return ruleHit{class: ClassUnclassified}
}

// foldText lowercases and maps punctuation to spaces so word-boundary
// matching is cheap.
func foldText(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte(' ')
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte(' ')
	return b.String()
}

// containsWord reports whether the folded text contains the keyword as a
// full-word phrase.
func containsWord(folded, keyword string) bool {
	return strings.Contains(folded, " "+keyword+" ")
}

// defaultRules transcribes §III-B. Order matters: Driver before Kernel
// (a "wireless driver packet parsing" flaw is a driver flaw even though
// "packet" smells of the network stack), and Application last-but-specific
// keywords still win over the generic kernel bucket by appearing earlier
// where the paper's rationale demands it.
var defaultRules = []Rule{
	{
		Name:  "driver/devices",
		Class: ClassDriver,
		Keywords: []string{
			"driver", "drivers",
			"wireless card", "network card", "ethernet card", "nic firmware",
			"video card", "graphics card", "graphics adapter",
			"webcam", "web cam", "audio card", "sound card",
			"universal plug and play", "upnp device",
			"usb device", "firewire", "bluetooth adapter",
		},
	},
	{
		Name:  "application/services",
		Class: ClassApplication,
		Keywords: []string{
			// Paper: DBMS, messengers, editors, web/email/FTP clients and
			// servers, media players, language runtimes, antivirus,
			// Kerberos/LDAP, games.
			"database server", "database management", "sql server", "mysql", "postgresql",
			"messenger", "instant messaging", "chat client",
			"text editor", "word processor", "spreadsheet",
			"web browser", "browser", "web server", "http server", "httpd",
			"mail client", "mail server", "email client", "smtp server", "imap server",
			"pop3 server", "ftp client", "ftp server", "ftpd",
			"media player", "music player", "video player", "audio player",
			"compiler", "virtual machine", "java runtime", "interpreter", "runtime environment",
			"antivirus", "anti virus",
			"kerberos", "ldap server", "ldap client", "directory server",
			"game", "games",
			"dns server application", "proxy server", "news server", "irc client",
			"office suite", "pdf viewer", "image viewer", "archive utility",
		},
	},
	{
		Name:  "syssoft/base-system",
		Class: ClassSysSoft,
		Keywords: []string{
			// Paper: login, shells and basic daemons shipped by default.
			"login", "login program", "shell", "command shell",
			"sshd", "ssh daemon", "openssh",
			"telnetd", "telnet daemon", "rlogind", "rshd",
			"syslogd", "syslog daemon", "inetd", "xinetd",
			"cron", "crond", "at daemon", "init system", "getty",
			"su utility", "sudo", "passwd program", "password utility",
			"lpd", "printing daemon", "cups daemon", "nfs daemon", "mountd",
			"sendmail daemon", "base utility", "system utility", "pam module",
			"rpc daemon", "rpcbind", "portmapper", "snmp daemon", "ntp daemon", "ntpd",
		},
	},
	{
		Name:  "kernel/core",
		Class: ClassKernel,
		Keywords: []string{
			// Paper: TCP/IP stack and OS-dependent protocol
			// implementations, file systems, process/task management, core
			// libraries, processor-architecture flaws.
			"kernel", "tcp ip stack", "network stack", "tcp implementation",
			"ip implementation", "icmp implementation", "tcp stack",
			"dns resolver", "dns protocol implementation", "dhcp implementation",
			"dhcp client implementation", "arp handling", "ipv6 stack",
			"packet processing", "fragment reassembly", "stack handling",
			"file system", "filesystem", "vfs layer", "ffs", "ufs", "procfs",
			"process management", "task management", "process scheduler", "scheduler",
			"process table", "signal handling", "fork handling",
			"virtual memory", "memory management", "page table", "mmap handling",
			"system call", "syscall", "ioctl handling",
			"core library", "libc", "standard c library", "dynamic linker",
			"processor architecture", "cpu errata", "smp handling", "context switch",
		},
	},
}
