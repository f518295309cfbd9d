package analysis

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

// A ResolvedDiag pairs a diagnostic with the analyzer that produced it —
// the driver-level currency for printing and fixing.
type ResolvedDiag struct {
	Analyzer string
	Diag     Diagnostic
}

// ApplyFixes applies the first SuggestedFix of every diagnostic that has
// one. In dryRun mode it prints a per-hunk diff to w instead of writing
// files. Overlapping fixes are applied first-come (by position); the rest
// are skipped with a note. Returns the number of fixes applied (or, dry,
// printable) and the number of files touched.
func ApplyFixes(fset *token.FileSet, diags []ResolvedDiag, dryRun bool, w io.Writer) (fixes, files int, err error) {
	type fileFix struct {
		edits []TextEdit
		names []string // analyzer per edit, parallel
	}
	byFile := make(map[string]*fileFix)
	for _, rd := range diags {
		if len(rd.Diag.SuggestedFixes) == 0 {
			continue
		}
		fix := rd.Diag.SuggestedFixes[0]
		for _, ed := range fix.TextEdits {
			name := fset.Position(ed.Pos).Filename
			ff := byFile[name]
			if ff == nil {
				ff = &fileFix{}
				byFile[name] = ff
			}
			ff.edits = append(ff.edits, ed)
			ff.names = append(ff.names, rd.Analyzer)
		}
	}

	names := make([]string, 0, len(byFile))
	for name := range byFile {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ff := byFile[name]
		src, rerr := os.ReadFile(name)
		if rerr != nil {
			return fixes, files, rerr
		}
		// Sort edits by offset; drop overlaps (first wins).
		idx := make([]int, len(ff.edits))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return ff.edits[idx[a]].Pos < ff.edits[idx[b]].Pos })
		out := make([]byte, 0, len(src))
		prevEnd := 0
		applied := 0
		for _, i := range idx {
			ed := ff.edits[i]
			start := fset.Position(ed.Pos).Offset
			end := start
			if ed.End.IsValid() {
				end = fset.Position(ed.End).Offset
			}
			if start < prevEnd || start > len(src) || end > len(src) || end < start {
				fmt.Fprintf(w, "%s: skipping overlapping/out-of-range fix from %s\n", name, ff.names[i])
				continue
			}
			if dryRun {
				printHunk(w, name, src, start, end, ed.NewText)
			}
			out = append(out, src[prevEnd:start]...)
			out = append(out, ed.NewText...)
			prevEnd = end
			applied++
		}
		out = append(out, src[prevEnd:]...)
		if applied == 0 {
			continue
		}
		fixes += applied
		files++
		if !dryRun {
			if werr := os.WriteFile(name, out, 0o644); werr != nil {
				return fixes, files, werr
			}
		}
	}
	return fixes, files, nil
}

// printHunk shows one edit as a minimal line diff: the affected source
// lines before and after.
func printHunk(w io.Writer, name string, src []byte, start, end int, newText []byte) {
	lineStart := strings.LastIndexByte(string(src[:start]), '\n') + 1
	lineEnd := end
	if i := strings.IndexByte(string(src[end:]), '\n'); i >= 0 {
		lineEnd = end + i
	} else {
		lineEnd = len(src)
	}
	line := 1 + strings.Count(string(src[:lineStart]), "\n")
	old := string(src[lineStart:lineEnd])
	new := string(src[lineStart:start]) + string(newText) + string(src[end:lineEnd])
	fmt.Fprintf(w, "--- %s:%d\n", name, line)
	for _, l := range strings.Split(old, "\n") {
		fmt.Fprintf(w, "-%s\n", l)
	}
	for _, l := range strings.Split(new, "\n") {
		fmt.Fprintf(w, "+%s\n", l)
	}
}
