package zpl

// The AST mirrors the surface syntax; semantic resolution (which names are
// arrays, scalars, regions, or directions) happens in the interpreter's
// checker so that parse trees stay purely syntactic.

// Program is a parsed compilation unit. The parser numbers every scan block
// and assignment densely from 0 (their slot) and records the count, so an
// interpreter keeps per-statement state in a slice of its own: a Program is
// shared between interpreters and carries none.
type Program struct {
	Decls []Decl
	Stmts []Stmt
	slots int
}

// Decl is a top-level declaration.
type Decl interface{ declNode() }

// ConstDecl is `const name = expr;` (a compile-time scalar).
type ConstDecl struct {
	Name  string
	Value Expr
	Pos   Pos
}

// RegionDecl is `region name = [ranges];` or the border form
// `region name = dir of base;`.
type RegionDecl struct {
	Name   string
	Ranges []RangeExpr
	// OfDir/OfBase are set for the border form.
	OfDir, OfBase string
	Pos           Pos
}

// DirectionDecl is `direction name = [c1, c2, ...];`.
type DirectionDecl struct {
	Name  string
	Comps []Expr
	Pos   Pos
}

// VarDecl is `var a, b : [Region] double;`.
type VarDecl struct {
	Names  []string
	Region string // named region the arrays are allocated over
	Pos    Pos
}

// ScalarVarDecl is `var x : double;`.
type ScalarVarDecl struct {
	Names []string
	Pos   Pos
}

func (*ConstDecl) declNode()     {}
func (*RegionDecl) declNode()    {}
func (*DirectionDecl) declNode() {}
func (*VarDecl) declNode()       {}
func (*ScalarVarDecl) declNode() {}

// RangeExpr is `lo..hi`, or a single expression `e` standing for `e..e`.
type RangeExpr struct {
	Lo, Hi Expr
}

// Stmt is a statement.
type Stmt interface{ stmtNode() }

// RegionStmt prefixes a statement with a covering region: a named region,
// inline ranges, or a border (`[north of R]`).
type RegionStmt struct {
	Name          string      // nonempty for [R]
	Ranges        []RangeExpr // nonempty for [e..e, ...]
	OfDir, OfBase string      // nonempty for [d of R]
	Body          Stmt
	Pos           Pos
}

// ScanStmt is `scan stmts end;`.
type ScanStmt struct {
	Body []Stmt
	Pos  Pos
	slot int
}

// BeginStmt is `begin stmts end;` — a plain statement group.
type BeginStmt struct {
	Body []Stmt
	Pos  Pos
}

// AssignStmt is `name := expr;` (array or scalar, resolved semantically).
// Reduce, when nonempty ("+", "max", or "min"), makes the statement a full
// reduction `name := op<< expr;` over the covering region; the target must
// then be a scalar.
type AssignStmt struct {
	Name   string
	Reduce string
	RHS    Expr
	Pos    Pos
	slot   int
}

// ForStmt is `for v := from to|downto to do stmts end;`.
type ForStmt struct {
	Var      string
	From, To Expr
	Down     bool
	Body     []Stmt
	Pos      Pos
}

// WritelnStmt prints its arguments followed by a newline.
type WritelnStmt struct {
	Args []Expr
	Pos  Pos
}

// IfStmt is `if cond then stmts [else stmts] end;`.
type IfStmt struct {
	Cond       Cond
	Then, Else []Stmt
	Pos        Pos
}

// RepeatStmt is `repeat stmts until cond;` — the body executes at least
// once and repeats until the condition holds.
type RepeatStmt struct {
	Body []Stmt
	Cond Cond
	Pos  Pos
}

// Cond is a scalar boolean condition (if/until only; arrays of booleans
// are not part of the supported subset).
type Cond interface{ condNode() }

// RelCond compares two scalar expressions: Op is Lt, Le, Gt, Ge, Eq, or
// NotEq.
type RelCond struct {
	Op   Kind
	L, R Expr
	Pos  Pos
}

// AndCond is `l and r`; OrCond is `l or r`; NotCond is `not x`.
type AndCond struct{ L, R Cond }

// OrCond is the disjunction of two conditions.
type OrCond struct{ L, R Cond }

// NotCond negates a condition.
type NotCond struct{ X Cond }

func (*RelCond) condNode() {}
func (*AndCond) condNode() {}
func (*OrCond) condNode()  {}
func (*NotCond) condNode() {}

func (*RegionStmt) stmtNode()  {}
func (*ScanStmt) stmtNode()    {}
func (*BeginStmt) stmtNode()   {}
func (*AssignStmt) stmtNode()  {}
func (*ForStmt) stmtNode()     {}
func (*WritelnStmt) stmtNode() {}
func (*IfStmt) stmtNode()      {}
func (*RepeatStmt) stmtNode()  {}

// Expr is an expression.
type Expr interface{ exprNode() }

// NumLit is a numeric literal.
type NumLit struct {
	V   float64
	Pos Pos
}

// StrLit is a string literal (writeln only).
type StrLit struct {
	S   string
	Pos Pos
}

// NameRef is an identifier with optional prime and @-shift; whether it
// names an array, scalar variable, constant, or loop variable is resolved
// semantically.
type NameRef struct {
	Name   string
	Primed bool
	// Shift: at most one of ShiftName / ShiftComps is set.
	ShiftName  string
	ShiftComps []Expr
	Pos        Pos
}

// UnaryExpr is unary minus.
type UnaryExpr struct {
	X   Expr
	Pos Pos
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   Kind // Plus, Minus, Star, Slash
	L, R Expr
	Pos  Pos
}

// CallExpr is `fn(args)` over the intrinsics of internal/expr.
type CallExpr struct {
	Fn   string
	Args []Expr
	Pos  Pos
}

func (*NumLit) exprNode()    {}
func (*StrLit) exprNode()    {}
func (*NameRef) exprNode()   {}
func (*UnaryExpr) exprNode() {}
func (*BinExpr) exprNode()   {}
func (*CallExpr) exprNode()  {}
