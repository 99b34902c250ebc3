//! Spanned abstract syntax tree for the P4_16 subset.
//!
//! Every name-bearing node carries the [`Span`] it was parsed at, so the
//! semantic pass ([`crate::sema`]) can emit source-located diagnostics and
//! the lowering pass ([`crate::lower`](mod@crate::lower)) can blame a declaration when a
//! pragma is malformed.

use crate::lex::Span;

/// An identifier with its source location.
#[derive(Clone, Debug)]
pub struct Ident {
    /// The name.
    pub name: String,
    /// Where it appears.
    pub span: Span,
}

impl std::fmt::Display for Ident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A type reference: `bit<N>` or a named type (`ipv4_h`, `headers_t`,
/// `packet_in`).
#[derive(Clone, Debug)]
pub enum TypeRef {
    /// `bit<N>`.
    Bits {
        /// Bit width.
        width: u32,
        /// Where the type is written.
        span: Span,
    },
    /// A named type.
    Named(Ident),
}

impl TypeRef {
    /// The source location of the type reference.
    pub fn span(&self) -> Span {
        match self {
            TypeRef::Bits { span, .. } => *span,
            TypeRef::Named(id) => id.span,
        }
    }
}

/// A dotted field path (`hdr.ipv4.dst_addr`, `meta.version`, or a bare
/// action-parameter reference).
#[derive(Clone, Debug)]
pub struct FieldPath {
    /// Path components, outermost first.
    pub parts: Vec<Ident>,
}

impl FieldPath {
    /// Where the path starts.
    pub fn span(&self) -> Span {
        self.parts
            .first()
            .map(|p| p.span)
            .unwrap_or(Span { line: 0, col: 0 })
    }

    /// Render as `a.b.c`.
    pub fn dotted(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// An integer literal, optionally width-sized (`16w0x0800`).
#[derive(Clone, Copy, Debug)]
pub struct Literal {
    /// Declared width (None for bare integers, which adapt to context).
    pub width: Option<u32>,
    /// Value.
    pub value: u128,
    /// Location.
    pub span: Span,
}

/// An expression: a field/parameter reference or a literal.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Field or parameter reference.
    Path(FieldPath),
    /// Integer literal.
    Lit(Literal),
}

impl Expr {
    /// Where the expression starts.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path(p) => p.span(),
            Expr::Lit(l) => l.span,
        }
    }
}

/// One field in a header or struct.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    /// Field type.
    pub ty: TypeRef,
    /// Field name.
    pub name: Ident,
}

/// `header name { ... }`.
#[derive(Clone, Debug)]
pub struct HeaderDecl {
    /// Header type name.
    pub name: Ident,
    /// Fields (must all be `bit<N>` — checked by sema).
    pub fields: Vec<FieldDecl>,
}

/// `struct name { ... }`.
#[derive(Clone, Debug)]
pub struct StructDecl {
    /// Struct type name.
    pub name: Ident,
    /// Fields (header-typed for the headers struct, `bit<N>` for metadata).
    pub fields: Vec<FieldDecl>,
}

/// Parameter direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamDir {
    /// No direction keyword.
    None,
    /// `in`.
    In,
    /// `out`.
    Out,
    /// `inout`.
    InOut,
}

/// One parser/control parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Direction.
    pub dir: ParamDir,
    /// Type.
    pub ty: TypeRef,
    /// Name.
    pub name: Ident,
}

/// A `transition` at the end of a parser state.
#[derive(Clone, Debug)]
pub enum Transition {
    /// `transition next_state;`
    Direct(Ident),
    /// `transition select(key) { lit : state; ... default : state; }`
    Select {
        /// The select key expression.
        key: Expr,
        /// Value → state arms.
        arms: Vec<SelectArm>,
        /// The `default :` target, if any.
        default: Option<Ident>,
    },
}

/// One arm of a `select`.
#[derive(Clone, Debug)]
pub struct SelectArm {
    /// Matched literal.
    pub value: Literal,
    /// Target state.
    pub target: Ident,
}

/// `state name { extracts...; transition ...; }`.
#[derive(Clone, Debug)]
pub struct StateDecl {
    /// State name.
    pub name: Ident,
    /// `pkt.extract(hdr.x)` calls, in order.
    pub extracts: Vec<FieldPath>,
    /// The closing transition.
    pub transition: Transition,
}

/// `parser name(params) { states }`.
#[derive(Clone, Debug)]
pub struct ParserDecl {
    /// Parser name.
    pub name: Ident,
    /// Parameters (`packet_in pkt, out headers_t hdr, inout metadata_t meta`).
    pub params: Vec<Param>,
    /// States.
    pub states: Vec<StateDecl>,
}

/// One `lhs = rhs;` statement in an action body (one VLIW primitive).
#[derive(Clone, Debug)]
pub struct Assign {
    /// Destination field.
    pub lhs: FieldPath,
    /// Source expression.
    pub rhs: Expr,
}

/// `action name(bit<N> p, ...) { assigns }`.
#[derive(Clone, Debug)]
pub struct ActionDecl {
    /// Action name.
    pub name: Ident,
    /// Parameters (action data; widths sum to the table's action bits).
    pub params: Vec<FieldDecl>,
    /// Body statements.
    pub body: Vec<Assign>,
}

/// An `@pragma name args...` line attached to the following declaration.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// Pragma name (`stage`, `transactional`, `hash_ways`, `digest`,
    /// `selector_hash`).
    pub name: Ident,
    /// Arguments (integers or field paths).
    pub args: Vec<PragmaArg>,
}

/// One pragma argument.
#[derive(Clone, Debug)]
pub enum PragmaArg {
    /// Integer argument.
    Int(u64, Span),
    /// Field path / word argument.
    Path(FieldPath),
}

impl PragmaArg {
    /// Where the argument is.
    pub fn span(&self) -> Span {
        match self {
            PragmaArg::Int(_, s) => *s,
            PragmaArg::Path(p) => p.span(),
        }
    }
}

/// One `field : match_kind;` entry in a table key.
#[derive(Clone, Debug)]
pub struct KeyEntry {
    /// The matched field.
    pub field: FieldPath,
    /// Match kind (`exact`, `ternary`, `lpm`).
    pub match_kind: Ident,
}

/// `default_action = name(args);` (args optional).
#[derive(Clone, Debug)]
pub struct ActionCall {
    /// Action name.
    pub name: Ident,
    /// Compile-time arguments (empty when written bare).
    pub args: Vec<Expr>,
}

/// `table name { key/actions/size/default_action }` with leading pragmas.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Pragmas preceding the declaration.
    pub pragmas: Vec<Pragma>,
    /// Table name.
    pub name: Ident,
    /// Key entries.
    pub key: Vec<KeyEntry>,
    /// Actions the table may invoke.
    pub actions: Vec<Ident>,
    /// `size = N;`
    pub size: Option<(u64, Span)>,
    /// `default_action = ...;`
    pub default_action: Option<ActionCall>,
}

/// `register<bit<W>>(cells) name;` with leading pragmas.
#[derive(Clone, Debug)]
pub struct RegisterDef {
    /// Pragmas preceding the declaration.
    pub pragmas: Vec<Pragma>,
    /// Cell width in bits.
    pub cell_width: u32,
    /// Where the width is written.
    pub width_span: Span,
    /// Number of cells.
    pub cells: u64,
    /// Register name.
    pub name: Ident,
}

/// A condition in an apply-block `if`.
#[derive(Clone, Debug)]
pub enum Cond {
    /// `name.apply().hit` / `name.apply().miss` / `!name.apply().hit`.
    ApplyResult {
        /// The applied table.
        table: Ident,
        /// True for `.hit` (after folding any leading `!`).
        hit: bool,
    },
    /// `lhs == rhs` / `lhs != rhs`.
    Compare {
        /// Left side.
        lhs: Expr,
        /// Right side.
        rhs: Expr,
    },
}

/// One statement in the control's `apply { ... }` block.
#[derive(Clone, Debug)]
pub enum ApplyStmt {
    /// `name.apply();`
    Apply {
        /// The applied table.
        target: Ident,
    },
    /// `dst = reg.execute(index);` — a stateful register access.
    RegisterOp {
        /// Destination metadata field.
        dst: FieldPath,
        /// The register instance.
        reg: Ident,
        /// Index expression.
        index: Expr,
    },
    /// `if (cond) { ... } else { ... }`.
    If {
        /// Condition.
        cond: Cond,
        /// Then branch.
        then: Vec<ApplyStmt>,
        /// Else branch (empty when absent).
        els: Vec<ApplyStmt>,
    },
}

/// `control name(params) { actions/tables/registers; apply { ... } }`.
#[derive(Clone, Debug)]
pub struct ControlDecl {
    /// Control name (becomes the lowered program name).
    pub name: Ident,
    /// Parameters.
    pub params: Vec<Param>,
    /// Actions, in declaration order.
    pub actions: Vec<ActionDecl>,
    /// Tables, in declaration order.
    pub tables: Vec<TableDef>,
    /// Registers, in declaration order.
    pub registers: Vec<RegisterDef>,
    /// The apply block.
    pub apply: Vec<ApplyStmt>,
}

/// A whole parsed program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Header type declarations.
    pub headers: Vec<HeaderDecl>,
    /// Struct type declarations.
    pub structs: Vec<StructDecl>,
    /// Parsers (the subset expects exactly one; sema checks).
    pub parsers: Vec<ParserDecl>,
    /// Controls (the subset expects exactly one; sema checks).
    pub controls: Vec<ControlDecl>,
}
