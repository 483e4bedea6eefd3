package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// wireScope matches the wire package, the one place allowed to know the
// encoding.
var wireScope = segSuffix(`internal/wire`)

// WireClosed enforces that the protocol's message set stays closed and the
// encoding stays in one place. Inside internal/wire it cross-checks the
// registry the encoding is built around: every tag constant (TagXxx) must
// have a unique value, a message type, a case in the encode type switch, a
// case in the decode tag switch, and a golden vector in testdata/golden_*.txt
// (the byte-level compatibility contract — a message that can be encoded but
// has no pinned vector can change layout silently). Every request (a message
// named *Req) must also have a case that calls Stamp.apply in every stamping
// type switch — a switch any of whose cases does — or a request would go out
// without its ID on one send path and with it on the other. Some holder (a
// type with a Tag field: one field per message it can hold) must have a
// field for every message, and every switch in a holder's methods — the ones
// that box it into an any, fill it from one or decode into it — must have a
// case for every message it holds, or that message would be dropped on one
// receive path only. In every package, the wire
// package included, an encoding/gob import is a finding: a second
// serialization path is exactly how version skew slipped into the pre-codec
// WAL.
var WireClosed = &Analyzer{
	Name: "wireclosed",
	Doc:  "the wire message set is closed: tags, switches, stamping cases, holder fields and golden vectors in lockstep; no encoding/gob anywhere",
	Run:  runWireClosed,
}

func runWireClosed(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "encoding/gob" {
				pass.Reportf(imp.Pos(), "encoding/gob opens a second serialization path; route through wire.Append and wire.Decode instead")
			}
		}
	}
	if pathMatches(pass.Pkg.Path, wireScope) {
		checkWireRegistry(pass)
	}
}

// wireTag is one TagXxx constant from the wire package's registry.
type wireTag struct {
	name  string
	value uint64
	pos   ast.Node
}

// checkWireRegistry cross-checks tag constants against the encode and
// decode switches and the golden vector corpus.
func checkWireRegistry(pass *Pass) {
	tags := collectWireTags(pass)
	if len(tags) == 0 {
		return
	}

	// Unique values: two tags sharing a byte make decode ambiguous.
	byValue := make(map[uint64]string)
	for _, t := range tags {
		if prev, dup := byValue[t.value]; dup {
			pass.Reportf(t.pos.Pos(), "duplicate tag value %d: %s collides with %s", t.value, t.name, prev)
			continue
		}
		byValue[t.value] = t.name
	}

	encodeCases, stamping := collectTypeSwitchCases(pass)
	decodeCases := collectTagSwitchCases(pass)
	golden := collectGoldenNames(pass)

	scope := pass.Pkg.Types.Scope()
	messages := make(map[string]bool)
	for _, t := range tags {
		msg := strings.TrimPrefix(t.name, "Tag")
		obj := scope.Lookup(msg)
		if _, ok := obj.(*types.TypeName); !ok {
			pass.Reportf(t.pos.Pos(), "tag %s has no message type %s; the tag set and the type set must move together", t.name, msg)
			continue
		}
		messages[msg] = true
		if !encodeCases[msg] {
			pass.Reportf(t.pos.Pos(), "message %s has no encode case; every message must appear in the encode type switch", msg)
		}
		if !decodeCases[t.name] {
			pass.Reportf(t.pos.Pos(), "tag %s has no decode case; every tag must appear in the decode switch", t.name)
		}
		if golden != nil && !goldenCovers(golden, snakeCase(msg)) {
			pass.Reportf(t.pos.Pos(), "message %s has no golden vector in testdata/golden_*.txt; pin its byte layout", msg)
		}
		for _, sw := range stamping {
			if strings.HasSuffix(msg, "Req") && !sw.stamps[msg] {
				pass.Reportf(t.pos.Pos(), "request %s is not stamped in the stamping switch on line %d; every request case must call Stamp.apply", msg, sw.line)
			}
		}
	}
	checkHolders(pass, tags, messages)
}

// checkHolders finds the package's holders — types with a Tag field, their
// own or promoted — and checks that some holder has a field for every
// message and that every switch in a holder's methods has a case for every
// message the holder has a field for.
func checkHolders(pass *Pass, tags []wireTag, messages map[string]bool) {
	pkg := pass.Pkg.Types
	field := func(t types.Type, name string) *types.Var {
		obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, name)
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	holds := func(h types.Type, msg string) bool {
		v := field(h, msg)
		return v != nil && types.Identical(v.Type(), pkg.Scope().Lookup(msg).Type())
	}
	holders := make(map[string]types.Type)
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && field(tn.Type(), "Tag") != nil {
			holders[name] = tn.Type()
		}
	}
	if len(holders) == 0 {
		return
	}
	for _, t := range tags {
		msg := strings.TrimPrefix(t.name, "Tag")
		if !messages[msg] {
			continue
		}
		held := false
		for _, h := range holders {
			held = held || holds(h, msg)
		}
		if !held {
			pass.Reportf(t.pos.Pos(), "message %s has no field in any holder; a holder must be able to hold every message", msg)
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			id, _ := recv.(*ast.Ident)
			if id == nil || holders[id.Name] == nil {
				continue
			}
			h := holders[id.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var cases map[string]bool
				switch sw := n.(type) {
				case *ast.SwitchStmt:
					cases = switchCaseNames(sw.Body, "Tag")
				case *ast.TypeSwitchStmt:
					cases = switchCaseNames(sw.Body, "")
				}
				if len(cases) == 0 {
					return true // not a switch over messages
				}
				for _, t := range tags {
					if msg := strings.TrimPrefix(t.name, "Tag"); messages[msg] && holds(h, msg) && !cases[msg] {
						pass.Reportf(n.Pos(), "switch in %s.%s has no case for %s; a switch that boxes, fills or decodes a holder covers every message it holds", id.Name, fd.Name.Name, msg)
					}
				}
				return true
			})
		}
	}
}

// switchCaseNames returns the messages a switch body has cases for: with
// prefix "Tag", the TagXxx constants of a tag switch, named as messages;
// with "", the types of a type switch.
func switchCaseNames(body *ast.BlockStmt, prefix string) map[string]bool {
	names := make(map[string]bool)
	for _, stmt := range body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && strings.HasPrefix(id.Name, prefix) && len(id.Name) > len(prefix) {
				names[strings.TrimPrefix(id.Name, prefix)] = true
			}
		}
	}
	return names
}

// collectWireTags gathers package-level byte constants named TagXxx.
func collectWireTags(pass *Pass) []wireTag {
	var tags []wireTag
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Tag") || len(name.Name) <= len("Tag") {
						continue
					}
					c, ok := pass.Pkg.Info.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					b, ok := c.Type().Underlying().(*types.Basic)
					if !ok || (b.Kind() != types.Uint8 && b.Kind() != types.UntypedInt) {
						continue
					}
					v, ok := constant.Uint64Val(c.Val())
					if !ok {
						continue
					}
					tags = append(tags, wireTag{name: name.Name, value: v, pos: name})
				}
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].pos.Pos() < tags[j].pos.Pos() })
	return tags
}

// stampingSwitch is a type switch with a case that calls Stamp.apply:
// stamps holds the types whose case does.
type stampingSwitch struct {
	line   int
	stamps map[string]bool
}

// collectTypeSwitchCases unions the package-local type names appearing as
// cases of any type switch — the encode side of the registry — and returns
// the stamping switches among them.
func collectTypeSwitchCases(pass *Pass) (map[string]bool, []stampingSwitch) {
	cases := make(map[string]bool)
	var stamping []stampingSwitch
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			sw := stampingSwitch{line: pass.Pkg.Fset.Position(ts.Pos()).Line, stamps: make(map[string]bool)}
			for _, stmt := range ts.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				stamps := callsStampApply(pass.Pkg.Info, cc)
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						cases[id.Name] = true
						if stamps {
							sw.stamps[id.Name] = true
						}
					}
				}
			}
			if len(sw.stamps) > 0 {
				stamping = append(stamping, sw)
			}
			return true
		})
	}
	return cases, stamping
}

// callsStampApply reports whether the case calls a method apply of a type
// named Stamp.
func callsStampApply(info *types.Info, cc *ast.CaseClause) bool {
	found := false
	ast.Inspect(cc, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && fn.Name() == "apply" && fn.Type().(*types.Signature).Recv() != nil {
				named, ok := fn.Type().(*types.Signature).Recv().Type().(*types.Named)
				found = found || ok && named.Obj().Name() == "Stamp"
			}
		}
		return !found
	})
	return found
}

// collectTagSwitchCases unions the TagXxx identifiers appearing as cases of
// any value switch — the decode side of the registry.
func collectTagSwitchCases(pass *Pass) map[string]bool {
	cases := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok && strings.HasPrefix(id.Name, "Tag") {
						cases[id.Name] = true
					}
				}
			}
			return true
		})
	}
	return cases
}

// collectGoldenNames reads the first field of every line of every
// testdata/golden_*.txt vector file. nil means the package has no golden
// corpus at all (the check is skipped; the wire package's own tests enforce
// its presence).
func collectGoldenNames(pass *Pass) map[string]bool {
	files, _ := filepath.Glob(filepath.Join(pass.Pkg.Dir, "testdata", "golden_*.txt"))
	if len(files) == 0 {
		return nil
	}
	names := make(map[string]bool)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if name, _, ok := strings.Cut(line, " "); ok {
				names[name] = true
			}
		}
	}
	return names
}

// goldenCovers reports whether a vector named snake, or a variant
// snake_<qualifier>, exists in the corpus.
func goldenCovers(golden map[string]bool, snake string) bool {
	if golden[snake] {
		return true
	}
	for name := range golden {
		if strings.HasPrefix(name, snake+"_") {
			return true
		}
	}
	return false
}

// snakeCase lowers a CamelCase message name to the golden corpus's naming:
// ReadResp → read_resp.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}
