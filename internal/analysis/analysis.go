// Package analysis is fragvet's analyzer framework: a deliberately
// small, dependency-free mirror of the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) built directly on go/ast and
// go/types, because this module vendors nothing and the container
// carries no module cache. The subpackages implement one analyzer per
// simulation invariant:
//
//   - vclockpurity: simulation packages charge the shared virtual
//     clock, never the wall clock, and charge* helpers must advance it;
//   - sentinelerr: errors escaping the blob.Store boundary wrap the
//     sentinel vocabulary in blob/errors.go;
//   - poollifecycle: pooled Reader/Writer handles are closed exactly
//     once and never used after Close/Commit/Abort;
//   - lockorder: no KeyLocks stripe is held across a call that can
//     reach the group-commit force;
//   - ctxflow: operations thread their context.Context instead of
//     minting context.Background() mid-chain.
//
// cmd/fragvet drives the suite as a `go vet -vettool` backend.
// Suppressions are inline comments of the
// form
//
//	//fragvet:ignore <analyzer> <reason>
//
// on (or immediately above) the flagged line; the reason is mandatory
// and an ignore that suppresses nothing is itself a diagnostic, so
// stale suppressions cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fragvet:ignore comments.
	Name string
	// Doc is the one-paragraph description `fragvet help` prints.
	Doc string
	// Run reports the analyzer's findings on one package via
	// Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// IgnoreName is the analyzer name attributed to diagnostics produced by
// the suppression machinery itself (missing reasons, stale ignores).
const IgnoreName = "fragvet"

// ignoreDirective is one parsed //fragvet:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

var ignoreRE = regexp.MustCompile(`^//fragvet:ignore(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// parseIgnores extracts every //fragvet:ignore directive in files.
func parseIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//fragvet:ignore") {
					continue
				}
				m := ignoreRE.FindStringSubmatch(c.Text)
				d := &ignoreDirective{pos: c.Pos()}
				if m != nil {
					d.analyzer, d.reason = m[1], m[2]
				}
				p := fset.Position(c.Pos())
				d.file, d.line = p.Filename, p.Line
				out = append(out, d)
			}
		}
	}
	return out
}

// Filter applies the //fragvet:ignore directives in files to diags: a
// diagnostic from analyzer A on line L is suppressed by a well-formed
// directive for A on line L or L-1. It returns the surviving
// diagnostics plus machinery diagnostics for malformed (no analyzer or
// no reason) and stale (suppressing nothing) directives, sorted by
// position.
func Filter(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	ignores := parseIgnores(fset, files)
	var kept []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		suppressed := false
		for _, ig := range ignores {
			if ig.analyzer == "" || ig.reason == "" {
				continue // malformed; reported below, suppresses nothing
			}
			if ig.analyzer != d.Analyzer || ig.file != p.Filename {
				continue
			}
			if ig.line == p.Line || ig.line == p.Line-1 {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, ig := range ignores {
		switch {
		case ig.analyzer == "" || ig.reason == "":
			kept = append(kept, Diagnostic{
				Pos:      ig.pos,
				Analyzer: IgnoreName,
				Message:  "malformed fragvet:ignore: want //fragvet:ignore <analyzer> <reason>",
			})
		case !ig.used:
			kept = append(kept, Diagnostic{
				Pos:      ig.pos,
				Analyzer: IgnoreName,
				Message:  fmt.Sprintf("stale fragvet:ignore: no %s finding here to suppress", ig.analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies every analyzer to pkg and returns the ignore-filtered
// diagnostics. Analyzer errors (not findings) are returned as-is.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	return Filter(pkg.Fset, pkg.Files, diags), nil
}

// NewInfo returns a types.Info with every map analyzers rely on
// populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
