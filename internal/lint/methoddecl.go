package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// MethodDecl is the schema-declaration verifier: it locates core.Method
// composite literals, resolves their Body functions, derives the
// ground-truth analysis inputs from the bodies' syntax, and cross-checks
// them against the declared fields. See the package comment for the
// unsound/pessimizing diagnostic classes and the conservatism rules.
var MethodDecl = &Analyzer{
	Name: "methoddecl",
	Doc:  "check hand-declared core.Method properties against method bodies",
	Run:  runMethodDecl,
}

// corePaths are the import paths that provide the Method type: the runtime
// package itself and the public facade (whose Method is a type alias).
var corePaths = map[string]string{
	"repro/internal/core": "core",
	"repro":               "concert",
}

// methodFields is the set of assignable core.Method field names the
// analyzer understands; a selector ending in one of these on a known method
// binding is a field update, not a new binding.
var methodFields = map[string]bool{
	"Name": true, "Body": true,
	"NArgs": true, "NLocals": true, "NFutures": true,
	"Locks": true, "MayBlockLocal": true, "Captures": true,
	"Calls": true, "Forwards": true,
	"ID": true, "Required": true, "Emitted": true,
}

// A binding is the set of method declarations a name may refer to at the
// end of its builder function. Multi-way locals ("meth := a; if c { meth =
// b }") accumulate every possibility; incomplete marks a name that was also
// assigned something the analyzer cannot resolve.
type binding struct {
	decls      []*declInfo
	incomplete bool
}

// A frame is one lexical scope level (the builder function or a closure
// inside it).
type frame struct {
	parent *frame
	vars   map[string]*binding
}

func newFrame(parent *frame) *frame {
	return &frame{parent: parent, vars: map[string]*binding{}}
}

func (fr *frame) lookup(key string) *binding {
	for f := fr; f != nil; f = f.parent {
		if b, ok := f.vars[key]; ok {
			return b
		}
	}
	return nil
}

// declEdge is one resolved element of a declared Calls/Forwards list.
type declEdge struct {
	b   *binding
	pos token.Pos
}

// declInfo is everything known about one core.Method composite literal.
type declInfo struct {
	key  string // canonical selector path it is bound to ("get", "m.Get")
	name string // the Name: field when it is a string literal, else key
	pos  token.Pos

	locks, mayBlock, captures bool
	boolUnknown               map[string]bool // bool field set to a non-literal
	nargs, nlocals, nfutures  int
	numUnknown                map[string]bool // size field set to a non-literal
	fieldPos                  map[string]token.Pos

	calls, forwards                     []declEdge
	callsIncomplete, forwardsIncomplete bool

	bodies      []*ast.FuncLit
	bodyUnknown bool // Body assigned something that is not a func literal

	d derived
}

func (d *declInfo) label() string {
	if d.name != "" {
		return d.name
	}
	return d.key
}

func (d *declInfo) fpos(field string) token.Pos {
	if p, ok := d.fieldPos[field]; ok {
		return p
	}
	return d.pos
}

// dedge is one body-derived Invoke/ForwardTail edge.
type dedge struct {
	b   *binding
	pos token.Pos
}

// derived is the union of ground-truth facts across a method's bodies.
type derived struct {
	touches  []token.Pos // TouchAll/TouchJoin call sites
	captures []token.Pos // CaptureCont call sites
	unwinds  int         // rt.Unwind call sites
	invokes  []dedge
	forwards []dedge
	// invokesIncomplete / forwardsIncomplete: some callee expression did
	// not resolve to a known method binding, so the derived edge set is a
	// lower bound and absence proves nothing.
	invokesIncomplete, forwardsIncomplete bool
	// opaque: the rt handle escaped the body (passed to a helper, stored,
	// or used other than as a call receiver), so the body's effects are
	// not fully visible; only positively-observed facts can be trusted.
	opaque bool
}

func runMethodDecl(pass *Pass) error {
	for _, file := range pass.Files {
		aliases := coreAliases(file)
		if len(aliases) == 0 {
			continue
		}
		for _, tl := range file.Decls {
			fd, ok := tl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &collector{aliases: aliases, frames: map[*ast.FuncLit]*frame{}}
			root := newFrame(nil)
			c.collect(fd.Body, root)
			for _, decl := range c.decls {
				c.derive(decl)
				check(pass, decl)
			}
		}
	}
	return nil
}

// coreAliases maps the file's local names for core-providing imports
// ("core", "concert", or any rename) to true.
func coreAliases(file *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		def, ok := corePaths[path]
		if !ok {
			continue
		}
		name := def
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name != "_" && name != "." {
			out[name] = true
		}
	}
	return out
}

type collector struct {
	aliases map[string]bool
	frames  map[*ast.FuncLit]*frame
	decls   []*declInfo
}

// collect walks one builder function in source order, maintaining lexical
// frames and recording every method binding and field update.
func (c *collector) collect(body *ast.BlockStmt, root *frame) {
	var nodes []ast.Node
	frames := []*frame{root}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				frames = frames[:len(frames)-1]
			}
			return true
		}
		nodes = append(nodes, n)
		cur := frames[len(frames)-1]
		switch n := n.(type) {
		case *ast.FuncLit:
			child := newFrame(cur)
			c.frames[n] = child
			frames = append(frames, child)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					c.assign(cur, n.Lhs[i], n.Rhs[i], n.Tok == token.DEFINE)
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					c.assign(cur, n.Names[i], n.Values[i], true)
				}
			}
		}
		return true
	})
}

// keyOf canonicalizes an identifier or selector chain ("m.Get.Calls") into
// a dotted path, or "" when the expression is anything else.
func keyOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := keyOf(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return keyOf(e.X)
	case *ast.StarExpr:
		return keyOf(e.X)
	}
	return ""
}

func (c *collector) assign(fr *frame, lhs, rhs ast.Expr, define bool) {
	key := keyOf(lhs)
	if key == "" {
		return
	}
	// Field update on an existing method binding?
	if i := strings.LastIndexByte(key, '.'); i > 0 {
		prefix, field := key[:i], key[i+1:]
		if methodFields[field] {
			if b := fr.lookup(prefix); b != nil {
				for _, d := range b.decls {
					c.applyField(fr, d, field, rhs, key)
				}
				return
			}
		}
	}
	// New or updated binding.
	if d := c.methodLit(fr, rhs); d != nil {
		d.key = key
		if d.name == "" {
			d.name = key
		}
		c.bind(fr, key, &binding{decls: []*declInfo{d}}, define)
		return
	}
	if rkey := keyOf(rhs); rkey != "" {
		if src := fr.lookup(rkey); src != nil {
			c.bind(fr, key, &binding{decls: src.decls, incomplete: src.incomplete}, define)
			return
		}
	}
	// Unresolvable right-hand side: only relevant if the name already means
	// a method — then the name can no longer be trusted.
	if b := fr.lookup(key); b != nil {
		b.incomplete = true
	}
}

// bind installs b for key: accumulating possibilities into an existing
// binding (the multi-way local pattern), or defining it in the current
// frame.
func (c *collector) bind(fr *frame, key string, b *binding, define bool) {
	target := fr.lookup(key)
	if target == nil || (define && fr.vars[key] == nil) {
		fr.vars[key] = b
		return
	}
	for _, d := range b.decls {
		found := false
		for _, e := range target.decls {
			if e == d {
				found = true
				break
			}
		}
		if !found {
			target.decls = append(target.decls, d)
		}
	}
	target.incomplete = target.incomplete || b.incomplete
}

// methodLit recognizes (&)core.Method{...} and parses its fields.
func (c *collector) methodLit(fr *frame, e ast.Expr) *declInfo {
	switch v := e.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return c.methodLit(fr, v.X)
		}
	case *ast.ParenExpr:
		return c.methodLit(fr, v.X)
	case *ast.CompositeLit:
		sel, ok := v.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Method" {
			return nil
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || !c.aliases[pkg.Name] {
			return nil
		}
		d := &declInfo{
			pos:         v.Pos(),
			boolUnknown: map[string]bool{},
			numUnknown:  map[string]bool{},
			fieldPos:    map[string]token.Pos{},
		}
		c.decls = append(c.decls, d)
		for _, el := range v.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			k, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			c.applyField(fr, d, k.Name, kv.Value, "")
		}
		return d
	}
	return nil
}

// applyField records one declared field, from a literal element or a later
// assignment ("x.Calls = ...").
func (c *collector) applyField(fr *frame, d *declInfo, field string, val ast.Expr, assignKey string) {
	d.fieldPos[field] = val.Pos()
	switch field {
	case "Name":
		if lit, ok := val.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				d.name = s
			}
		}
	case "Body":
		if fn, ok := val.(*ast.FuncLit); ok {
			d.bodies = append(d.bodies, fn)
		} else {
			d.bodyUnknown = true
		}
	case "NArgs", "NLocals", "NFutures":
		if lit, ok := val.(*ast.BasicLit); ok && lit.Kind == token.INT {
			if n, err := strconv.Atoi(lit.Value); err == nil {
				switch field {
				case "NArgs":
					d.nargs = n
				case "NLocals":
					d.nlocals = n
				case "NFutures":
					d.nfutures = n
				}
				break
			}
			d.numUnknown[field] = true
		} else {
			d.numUnknown[field] = true
		}
	case "Locks", "MayBlockLocal", "Captures":
		if id, ok := val.(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
			set := id.Name == "true"
			switch field {
			case "Locks":
				d.locks = set
			case "MayBlockLocal":
				d.mayBlock = set
			case "Captures":
				d.captures = set
			}
		} else {
			d.boolUnknown[field] = true
		}
	case "Calls", "Forwards":
		edges, incomplete := c.edgeList(fr, val, assignKey)
		if field == "Calls" {
			d.calls = append(d.calls, edges...)
			d.callsIncomplete = d.callsIncomplete || incomplete
		} else {
			d.forwards = append(d.forwards, edges...)
			d.forwardsIncomplete = d.forwardsIncomplete || incomplete
		}
	}
}

// edgeList parses a declared edge list: a []*core.Method composite literal
// or an append(x.Calls, ...) call growing the same list. Elements that do
// not resolve to a known method binding mark the list incomplete.
func (c *collector) edgeList(fr *frame, val ast.Expr, assignKey string) ([]declEdge, bool) {
	switch v := val.(type) {
	case *ast.CompositeLit:
		var edges []declEdge
		incomplete := false
		for _, el := range v.Elts {
			if e, ok := c.resolveEdge(fr, el); ok {
				edges = append(edges, e)
			} else {
				incomplete = true
			}
		}
		return edges, incomplete
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 &&
			keyOf(v.Args[0]) == assignKey && v.Ellipsis == token.NoPos {
			var edges []declEdge
			incomplete := false
			for _, el := range v.Args[1:] {
				if e, ok := c.resolveEdge(fr, el); ok {
					edges = append(edges, e)
				} else {
					incomplete = true
				}
			}
			return edges, incomplete
		}
	}
	return nil, true
}

func (c *collector) resolveEdge(fr *frame, e ast.Expr) (declEdge, bool) {
	key := keyOf(e)
	if key == "" {
		return declEdge{}, false
	}
	b := fr.lookup(key)
	if b == nil || b.incomplete || len(b.decls) == 0 {
		return declEdge{}, false
	}
	return declEdge{b: b, pos: e.Pos()}, true
}

// derive walks the method's bodies and accumulates the ground-truth facts.
func (c *collector) derive(d *declInfo) {
	for _, fn := range d.bodies {
		c.deriveBody(d, fn)
	}
}

func (c *collector) deriveBody(d *declInfo, fn *ast.FuncLit) {
	rtName := paramNamed(c.aliases, fn, "RT")
	if rtName == "" {
		d.d.opaque = true
		return
	}
	base := c.frames[fn]
	if base == nil {
		base = newFrame(nil)
	}

	var nodes []ast.Node
	frames := []*frame{base}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			top := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				frames = frames[:len(frames)-1]
			}
			return true
		}
		cur := frames[len(frames)-1]
		switch n := n.(type) {
		case *ast.FuncLit:
			if f := c.frames[n]; f != nil {
				frames = append(frames, f)
			} else {
				frames = append(frames, newFrame(cur))
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == rtName {
					c.rtCall(d, cur, n, sel.Sel.Name)
				}
			}
		case *ast.Ident:
			if n.Name == rtName && rtEscapes(nodes, n) {
				d.d.opaque = true
			}
		}
		nodes = append(nodes, n)
		return true
	})
}

// rtCall records one rt.<Op>(...) call site.
func (c *collector) rtCall(d *declInfo, fr *frame, call *ast.CallExpr, op string) {
	switch op {
	case "TouchAll", "TouchJoin":
		d.d.touches = append(d.d.touches, call.Pos())
	case "CaptureCont":
		d.d.captures = append(d.d.captures, call.Pos())
	case "Unwind":
		d.d.unwinds++
	case "Invoke", "ForwardTail":
		if len(call.Args) < 2 {
			return
		}
		var e dedge
		key := keyOf(call.Args[1])
		if key != "" {
			if b := fr.lookup(key); b != nil && !b.incomplete && len(b.decls) > 0 {
				e = dedge{b: b, pos: call.Args[1].Pos()}
			}
		}
		if op == "Invoke" {
			if e.b != nil {
				d.d.invokes = append(d.d.invokes, e)
			} else {
				d.d.invokesIncomplete = true
			}
		} else {
			if e.b != nil {
				d.d.forwards = append(d.d.forwards, e)
			} else {
				d.d.forwardsIncomplete = true
			}
		}
	}
}

// paramNamed returns the name of the body parameter typed *<core>.<sel>.
func paramNamed(aliases map[string]bool, fn *ast.FuncLit, sel string) string {
	if fn.Type.Params == nil {
		return ""
	}
	for _, f := range fn.Type.Params.List {
		star, ok := f.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		s, ok := star.X.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != sel {
			continue
		}
		pkg, ok := s.X.(*ast.Ident)
		if !ok || !aliases[pkg.Name] {
			continue
		}
		if len(f.Names) > 0 {
			return f.Names[0].Name
		}
	}
	return ""
}

// rtEscapes reports whether ident (the rt handle) is used other than as the
// receiver of a direct method call — i.e. whether the body hands the
// runtime to code the analyzer cannot see.
func rtEscapes(stack []ast.Node, ident *ast.Ident) bool {
	if len(stack) == 0 {
		return true
	}
	parent := stack[len(stack)-1]
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.X != ident {
		return true
	}
	if len(stack) < 2 {
		return true
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return !ok || call.Fun != sel
}

// check cross-checks one method's declared fields against its derived
// ground truth and reports unsound / pessimizing diagnostics.
func check(pass *Pass, d *declInfo) {
	if len(d.bodies) == 0 || d.bodyUnknown {
		// Nothing visible to verify against; the runtime sanitizer is the
		// backstop for dynamically-attached bodies.
		return
	}
	dv := &d.d

	// --- unsound: the body does what the declaration forbids ---
	if !d.mayBlock && !d.locks && !d.boolUnknown["MayBlockLocal"] && !d.boolUnknown["Locks"] {
		for _, pos := range dv.touches {
			pass.Reportf(pos, "unsound",
				"method %s touches futures (may suspend) but declares neither MayBlockLocal nor Locks", d.label())
		}
	}
	if !d.captures && !d.boolUnknown["Captures"] {
		for _, pos := range dv.captures {
			pass.Reportf(pos, "unsound",
				"method %s captures its continuation but does not declare Captures", d.label())
		}
	}
	if !d.callsIncomplete {
		declared := edgeSet(d.calls)
		for _, e := range dv.invokes {
			for _, target := range e.b.decls {
				if !declared[target] {
					pass.Reportf(e.pos, "unsound",
						"method %s invokes %s, which is missing from its declared Calls", d.label(), target.label())
				}
			}
		}
	}
	if !d.forwardsIncomplete {
		declared := edgeSet(d.forwards)
		for _, e := range dv.forwards {
			for _, target := range e.b.decls {
				if !declared[target] {
					pass.Reportf(e.pos, "unsound",
						"method %s tail-forwards to %s, which is missing from its declared Forwards", d.label(), target.label())
				}
			}
		}
	}

	// --- pessimizing: the declaration claims what the body never does ---
	if dv.opaque {
		// The body hands rt to invisible code; absence of an observed
		// effect proves nothing.
		return
	}
	if d.mayBlock && len(dv.touches) == 0 && len(dv.invokes) == 0 &&
		!dv.invokesIncomplete && dv.unwinds == 0 {
		pass.Reportf(d.fpos("MayBlockLocal"), "pessimizing",
			"method %s declares MayBlockLocal but its body has no suspension point (no touch, invoke or unwind)", d.label())
	}
	if d.captures && len(dv.captures) == 0 {
		pass.Reportf(d.fpos("Captures"), "pessimizing",
			"method %s declares Captures but its body never captures its continuation", d.label())
	}
	if !dv.invokesIncomplete {
		used := map[*declInfo]bool{}
		for _, e := range dv.invokes {
			for _, t := range e.b.decls {
				used[t] = true
			}
		}
		for _, e := range d.calls {
			if !edgeUsed(e, used) {
				pass.Reportf(e.pos, "pessimizing",
					"method %s declares a Calls edge to %s that its body never invokes", d.label(), edgeLabel(e))
			}
		}
	}
	if !dv.forwardsIncomplete {
		used := map[*declInfo]bool{}
		for _, e := range dv.forwards {
			for _, t := range e.b.decls {
				used[t] = true
			}
		}
		for _, e := range d.forwards {
			if !edgeUsed(e, used) {
				pass.Reportf(e.pos, "pessimizing",
					"method %s declares a Forwards edge to %s that its body never forwards to", d.label(), edgeLabel(e))
			}
		}
	}
}

func edgeSet(edges []declEdge) map[*declInfo]bool {
	out := map[*declInfo]bool{}
	for _, e := range edges {
		for _, d := range e.b.decls {
			out[d] = true
		}
	}
	return out
}

func edgeUsed(e declEdge, used map[*declInfo]bool) bool {
	for _, d := range e.b.decls {
		if used[d] {
			return true
		}
	}
	return false
}

func edgeLabel(e declEdge) string {
	if len(e.b.decls) > 0 {
		return e.b.decls[0].label()
	}
	return "?"
}
