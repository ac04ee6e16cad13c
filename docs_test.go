package specrecon_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// livingDocs are the documents that tell a reader what to run; they may
// only name make targets and cmd/ binaries that exist. A section that
// records what an earlier PR ran (and so names what has since been
// retired) is fenced off in the document itself:
//
//	<!-- history: names tools and targets as they were -->
//	...
//	<!-- /history -->
var livingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	historyRE  = regexp.MustCompile(`(?s)<!-- history:.*?-->.*?<!-- /history -->`)
	codeSpanRE = regexp.MustCompile("`[^`]+`")
	makeRefRE  = regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	cmdRefRE   = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
	targetRE   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// docCode returns what a markdown document sets as code: the lines of
// its fenced blocks and its inline spans (which may wrap a line).
// "make" is an English verb everywhere else.
func docCode(text string) string {
	var code, prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, span := range codeSpanRE.FindAllString(prose.String(), -1) {
		code.WriteString(span + "\n")
	}
	return code.String()
}

// TestDocsNameOnlyWhatExists fails on a `make <target>` the Makefile no
// longer has and on a cmd/<name> that is no longer a directory, in any
// living document outside its history fences.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	if !targets["check"] || !targets["perf-gate"] {
		t.Fatalf("Makefile targets not recognised: %v", targets)
	}
	for _, doc := range livingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(data), "<!-- history:") != strings.Count(string(data), "<!-- /history -->") {
			t.Errorf("%s: unbalanced history fences", doc)
		}
		text := historyRE.ReplaceAllString(string(data), "")
		for _, m := range makeRefRE.FindAllStringSubmatch(docCode(text), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not have", doc, m[1])
			}
		}
		for _, m := range cmdRefRE.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat("cmd/" + m[1]); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
	}
}
