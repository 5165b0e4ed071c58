//! Structural binary codec for the snapshot format: little-endian,
//! length-prefixed, no self-description — the [`crate::snapshot`] header
//! carries the format version instead.
//!
//! Every decode path is written against *hostile* input (a snapshot file
//! may be truncated or bit-flipped): each declared length and element
//! count is checked against the bytes actually remaining **before** any
//! allocation (so a corrupted count cannot OOM), strings are validated
//! as UTF-8, enum tags are range-checked, and [`MathExpr`] decoding is
//! depth-capped. Errors are descriptive [`String`]s the snapshot layer
//! wraps into [`crate::snapshot::SnapshotError::Corrupt`]; nothing in
//! this module panics on malformed input.

use sbml_math::ast::{Constant, CsymbolKind, MathExpr, Op};
use sbml_model::rule::Constraint;
use sbml_model::{
    Compartment, CompartmentType, Event, EventAssignment, FunctionDefinition, InitialAssignment,
    KineticLaw, Model, Parameter, Reaction, Rule, Species, SpeciesReference, SpeciesType,
};
use sbml_units::kind::ALL_KINDS;
use sbml_units::{Unit, UnitDefinition};

/// Maximum [`MathExpr`] nesting the decoder will follow. Real kinetic
/// laws are a handful of levels deep; the cap exists so corrupted bytes
/// cannot drive unbounded recursion.
const MAX_EXPR_DEPTH: usize = 128;

/// [`Op`] variants in declaration order — the decode table for the `u8`
/// tag written as `op as u8`.
const OPS: [Op; 32] = [
    Op::Plus,
    Op::Times,
    Op::Minus,
    Op::Divide,
    Op::Power,
    Op::Root,
    Op::Exp,
    Op::Ln,
    Op::Log,
    Op::Abs,
    Op::Floor,
    Op::Ceiling,
    Op::Factorial,
    Op::Sin,
    Op::Cos,
    Op::Tan,
    Op::Arcsin,
    Op::Arccos,
    Op::Arctan,
    Op::Sinh,
    Op::Cosh,
    Op::Tanh,
    Op::Eq,
    Op::Neq,
    Op::Gt,
    Op::Lt,
    Op::Geq,
    Op::Leq,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
];

/// [`Constant`] decode table (tag = declaration order).
const CONSTANTS: [Constant; 6] = [
    Constant::Pi,
    Constant::ExponentialE,
    Constant::True,
    Constant::False,
    Constant::Infinity,
    Constant::NotANumber,
];

/// [`CsymbolKind`] decode table (tag = declaration order).
const CSYMBOLS: [CsymbolKind; 3] = [CsymbolKind::Time, CsymbolKind::Avogadro, CsymbolKind::Delay];

/// Seed of [`checksum`]'s lanes (the hexadecimal digits of pi).
const CHECKSUM_SEED: u64 = 0x243F_6A88_85A3_08D3;
/// Odd multiplier of [`checksum`]'s step (the 64-bit golden ratio).
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One checksum step: fold `word` into `state`. For a fixed word it is a
/// bijection of the state, and for a fixed state a bijection of the
/// word (xor, multiplication by an odd constant and rotation are all
/// invertible).
#[inline(always)]
fn checksum_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(CHECKSUM_MUL).rotate_left(29)
}

/// A little-endian word from an exactly-8-byte chunk.
#[inline(always)]
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// The snapshot format's 64-bit corruption check over `bytes`. Four
/// independent lanes each fold one little-endian 8-byte word per step
/// (32 bytes per round, so the multiplies overlap), then the length,
/// the lanes and the unaligned tail fold into one state, which a final
/// xor-shift-multiply spreads over all 64 bits.
///
/// Every step is a bijection of its state for a fixed word and of its
/// word for a fixed state, so a change confined to one aligned 8-byte
/// word — in particular every single-bit flip — always changes the
/// sum; wider damage is caught with probability 1 − 2⁻⁶⁴ per section.
/// It detects corruption, not forgery: a writer that recomputes the
/// sum can change the bytes, which is why a lazily decoded model
/// re-checks its own record when it is first decoded.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [CHECKSUM_SEED, CHECKSUM_SEED ^ 1, CHECKSUM_SEED ^ 2, CHECKSUM_SEED ^ 3];
    let mut rounds = bytes.chunks_exact(32);
    for round in &mut rounds {
        for (lane, chunk) in lanes.iter_mut().zip(round.chunks_exact(8)) {
            *lane = checksum_step(*lane, le_word(chunk));
        }
    }
    let mut state = (bytes.len() as u64).wrapping_mul(CHECKSUM_MUL);
    for lane in lanes {
        state = checksum_step(state, lane);
    }
    let mut words = rounds.remainder().chunks_exact(8);
    for chunk in &mut words {
        state = checksum_step(state, le_word(chunk));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = checksum_step(state, u64::from_le_bytes(word));
    }
    state ^= state >> 33;
    state = state.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    state ^ (state >> 33)
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Interning dictionary for [`Writer::key`]: string → id, assigned
    /// densely in first-write order (so encoding is deterministic).
    dict: std::collections::HashMap<Box<str>, u32>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (for nesting sections).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bits, little-endian — round-trips NaN payloads exactly.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// One byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// An element count / length prefix. Snapshot payloads are bounded
    /// by model sizes, far under `u32::MAX`.
    pub fn count(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Interned string. Canonical content keys, identifiers and posting
    /// keys repeat heavily across a corpus; the first occurrence is
    /// written inline (marker `0` + string) and assigned the next dense
    /// dictionary id, every repeat is a 4-byte back-reference (`id + 1`).
    /// Decode with [`Reader::key`] — writer and reader must agree call
    /// for call on which strings are interned.
    pub fn key(&mut self, s: &str) {
        if let Some(&id) = self.dict.get(s) {
            self.u32(id + 1);
        } else {
            let id = self.dict.len() as u32;
            self.dict.insert(s.into(), id);
            self.u32(0);
            self.str(s);
        }
    }

    /// `Option<String>` as a presence byte + string.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }

    /// `Option<f64>` as a presence byte + bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
            None => self.u8(0),
        }
    }

    /// `Option<i32>` as a presence byte + value.
    pub fn opt_i32(&mut self, v: Option<i32>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.i32(v);
            }
            None => self.u8(0),
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Decoded interning dictionary, filled by [`Reader::key`] as inline
    /// entries arrive. Grows by at most one `Arc<str>` per inline string
    /// actually present in the input, so hostile bytes cannot inflate it
    /// beyond the input size.
    dict: Vec<std::sync::Arc<str>>,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, dict: Vec::new() }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: {what} needs {n} byte(s), {} remain at offset {}",
                self.remaining(),
                self.pos,
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn fixed<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let slice = self.take(N, what)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Raw byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.fixed::<1>(what)?[0])
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        self.take(n, what)
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.fixed(what)?))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.fixed(what)?))
    }

    /// Little-endian `i32`.
    pub fn i32(&mut self, what: &str) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.fixed(what)?))
    }

    /// IEEE-754 bits, little-endian.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(self.fixed(what)?)))
    }

    /// One byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("{what}: invalid bool byte {other}")),
        }
    }

    /// An element count whose elements each occupy at least `min_elem`
    /// byte(s). The count is validated against the bytes remaining
    /// *before* the caller allocates — a corrupted 4-billion count fails
    /// here instead of in `Vec::with_capacity`.
    pub fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        let budget = if min_elem == 0 { self.remaining() } else { self.remaining() / min_elem };
        if n > budget {
            return Err(format!(
                "corrupt count: {what} declares {n} element(s) but only {} byte(s) remain",
                self.remaining(),
            ));
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, String> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what}: invalid UTF-8"))
    }

    /// Interned string written by [`Writer::key`]: marker `0` introduces
    /// a new inline string, any other tag is a back-reference into the
    /// dictionary built so far. Repeats decode to `Arc` clones of the
    /// first occurrence — one allocation per *distinct* string.
    pub fn key(&mut self, what: &str) -> Result<std::sync::Arc<str>, String> {
        let tag = self.u32(what)?;
        if tag == 0 {
            let len = self.count(1, what)?;
            let bytes = self.take(len, what)?;
            let s = std::str::from_utf8(bytes).map_err(|_| format!("{what}: invalid UTF-8"))?;
            let s: std::sync::Arc<str> = std::sync::Arc::from(s);
            self.dict.push(std::sync::Arc::clone(&s));
            Ok(s)
        } else {
            let id = (tag - 1) as usize;
            self.dict.get(id).cloned().ok_or_else(|| {
                format!("{what}: interned string id {id} beyond dictionary size {}", self.dict.len())
            })
        }
    }

    /// [`Reader::key`], materialised as an owned `String` (for struct
    /// fields that are not `Arc<str>`).
    pub fn key_string(&mut self, what: &str) -> Result<String, String> {
        Ok(self.key(what)?.as_ref().to_owned())
    }

    /// A length-validated run of `n` little-endian `u32`s, decoded in one
    /// bounds check instead of one per element — posting lists and
    /// adjacency arrays are the bulk of an index section.
    pub fn u32_list(&mut self, n: usize, what: &str) -> Result<Vec<u32>, String> {
        // `n` comes from `count(4, ..)`, so `n * 4` cannot overflow: it is
        // already bounded by the bytes remaining in the buffer.
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Presence byte + string.
    pub fn opt_str(&mut self, what: &str) -> Result<Option<String>, String> {
        if self.bool(what)? {
            Ok(Some(self.str(what)?))
        } else {
            Ok(None)
        }
    }

    /// Presence byte + bits.
    pub fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, String> {
        if self.bool(what)? {
            Ok(Some(self.f64(what)?))
        } else {
            Ok(None)
        }
    }

    /// Presence byte + value.
    pub fn opt_i32(&mut self, what: &str) -> Result<Option<i32>, String> {
        if self.bool(what)? {
            Ok(Some(self.i32(what)?))
        } else {
            Ok(None)
        }
    }
}

/// Encode a [`MathExpr`] (tag byte per variant, children recursive).
pub fn write_expr(w: &mut Writer, e: &MathExpr) {
    match e {
        MathExpr::Num(v) => {
            w.u8(0);
            w.f64(*v);
        }
        MathExpr::Ci(id) => {
            w.u8(1);
            // Identifiers recur constantly inside kinetic laws — interned.
            w.key(id);
        }
        MathExpr::Csymbol { kind, name } => {
            w.u8(2);
            w.u8(*kind as u8);
            w.str(name);
        }
        MathExpr::Const(c) => {
            w.u8(3);
            w.u8(*c as u8);
        }
        MathExpr::Apply { op, args } => {
            w.u8(4);
            w.u8(*op as u8);
            w.count(args.len());
            for a in args {
                write_expr(w, a);
            }
        }
        MathExpr::Call { function, args } => {
            w.u8(5);
            w.str(function);
            w.count(args.len());
            for a in args {
                write_expr(w, a);
            }
        }
        MathExpr::Piecewise { pieces, otherwise } => {
            w.u8(6);
            w.count(pieces.len());
            for (value, condition) in pieces {
                write_expr(w, value);
                write_expr(w, condition);
            }
            match otherwise {
                Some(e) => {
                    w.u8(1);
                    write_expr(w, e);
                }
                None => w.u8(0),
            }
        }
        MathExpr::Lambda { params, body } => {
            w.u8(7);
            w.count(params.len());
            for p in params {
                w.str(p);
            }
            write_expr(w, body);
        }
    }
}

/// Decode a [`MathExpr`]; depth-capped, tag- and count-checked.
pub fn read_expr(r: &mut Reader<'_>) -> Result<MathExpr, String> {
    read_expr_depth(r, 0)
}

fn read_expr_depth(r: &mut Reader<'_>, depth: usize) -> Result<MathExpr, String> {
    if depth > MAX_EXPR_DEPTH {
        return Err(format!("expression nesting exceeds {MAX_EXPR_DEPTH}"));
    }
    match r.u8("expr tag")? {
        0 => Ok(MathExpr::Num(r.f64("number")?)),
        1 => Ok(MathExpr::Ci(r.key_string("ci")?)),
        2 => {
            let tag = r.u8("csymbol kind")?;
            let kind = *CSYMBOLS
                .get(tag as usize)
                .ok_or_else(|| format!("invalid csymbol tag {tag}"))?;
            Ok(MathExpr::Csymbol { kind, name: r.str("csymbol name")? })
        }
        3 => {
            let tag = r.u8("constant")?;
            let c = *CONSTANTS
                .get(tag as usize)
                .ok_or_else(|| format!("invalid constant tag {tag}"))?;
            Ok(MathExpr::Const(c))
        }
        4 => {
            let tag = r.u8("op")?;
            let op = *OPS.get(tag as usize).ok_or_else(|| format!("invalid op tag {tag}"))?;
            let n = r.count(1, "apply args")?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(read_expr_depth(r, depth + 1)?);
            }
            Ok(MathExpr::Apply { op, args })
        }
        5 => {
            let function = r.str("call function")?;
            let n = r.count(1, "call args")?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(read_expr_depth(r, depth + 1)?);
            }
            Ok(MathExpr::Call { function, args })
        }
        6 => {
            let n = r.count(2, "piecewise pieces")?;
            let mut pieces = Vec::with_capacity(n);
            for _ in 0..n {
                let value = read_expr_depth(r, depth + 1)?;
                let condition = read_expr_depth(r, depth + 1)?;
                pieces.push((value, condition));
            }
            let otherwise = if r.bool("piecewise otherwise")? {
                Some(Box::new(read_expr_depth(r, depth + 1)?))
            } else {
                None
            };
            Ok(MathExpr::Piecewise { pieces, otherwise })
        }
        7 => {
            let n = r.count(1, "lambda params")?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(r.str("lambda param")?);
            }
            Ok(MathExpr::Lambda { params, body: Box::new(read_expr_depth(r, depth + 1)?) })
        }
        other => Err(format!("invalid expr tag {other}")),
    }
}

fn write_opt_expr(w: &mut Writer, e: Option<&MathExpr>) {
    match e {
        Some(e) => {
            w.u8(1);
            write_expr(w, e);
        }
        None => w.u8(0),
    }
}

fn read_opt_expr(r: &mut Reader<'_>, what: &str) -> Result<Option<MathExpr>, String> {
    if r.bool(what)? {
        Ok(Some(read_expr(r)?))
    } else {
        Ok(None)
    }
}

fn write_species_refs(w: &mut Writer, refs: &[SpeciesReference]) {
    w.count(refs.len());
    for sr in refs {
        // Species ids repeat across every reaction touching them — interned.
        w.key(&sr.species);
        w.f64(sr.stoichiometry);
    }
}

fn read_species_refs(r: &mut Reader<'_>) -> Result<Vec<SpeciesReference>, String> {
    let n = r.count(4, "species references")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(SpeciesReference {
            species: r.key_string("species reference id")?,
            stoichiometry: r.f64("stoichiometry")?,
        });
    }
    Ok(out)
}

fn write_parameter(w: &mut Writer, p: &Parameter) {
    w.str(&p.id);
    w.opt_str(p.name.as_deref());
    w.opt_f64(p.value);
    w.opt_str(p.units.as_deref());
    w.bool(p.constant);
}

fn read_parameter(r: &mut Reader<'_>) -> Result<Parameter, String> {
    Ok(Parameter {
        id: r.str("parameter id")?,
        name: r.opt_str("parameter name")?,
        value: r.opt_f64("parameter value")?,
        units: r.opt_str("parameter units")?,
        constant: r.bool("parameter constant")?,
    })
}

/// Encode a whole [`Model`] (every list length-prefixed, fields in
/// struct order).
pub fn write_model(w: &mut Writer, m: &Model) {
    w.str(&m.id);
    w.opt_str(m.name.as_deref());

    w.count(m.function_definitions.len());
    for f in &m.function_definitions {
        w.str(&f.id);
        w.opt_str(f.name.as_deref());
        w.count(f.params.len());
        for p in &f.params {
            w.str(p);
        }
        write_expr(w, &f.body);
    }

    w.count(m.unit_definitions.len());
    for ud in &m.unit_definitions {
        w.str(&ud.id);
        w.opt_str(ud.name.as_deref());
        w.count(ud.units.len());
        for u in &ud.units {
            // Tag = position in the spec-ordered ALL_KINDS table.
            let tag = ALL_KINDS.iter().position(|k| *k == u.kind).unwrap_or(0);
            w.u8(tag as u8);
            w.i32(u.exponent);
            w.i32(u.scale);
            w.f64(u.multiplier);
        }
    }

    w.count(m.compartment_types.len());
    for ct in &m.compartment_types {
        w.str(&ct.id);
        w.opt_str(ct.name.as_deref());
    }

    w.count(m.species_types.len());
    for st in &m.species_types {
        w.str(&st.id);
        w.opt_str(st.name.as_deref());
    }

    w.count(m.compartments.len());
    for c in &m.compartments {
        w.str(&c.id);
        w.opt_str(c.name.as_deref());
        w.opt_str(c.compartment_type.as_deref());
        w.u32(c.spatial_dimensions);
        w.opt_f64(c.size);
        w.opt_str(c.units.as_deref());
        w.opt_str(c.outside.as_deref());
        w.bool(c.constant);
    }

    w.count(m.species.len());
    for s in &m.species {
        w.str(&s.id);
        w.opt_str(s.name.as_deref());
        w.opt_str(s.species_type.as_deref());
        // A handful of compartments hold every species — interned.
        w.key(&s.compartment);
        w.opt_f64(s.initial_amount);
        w.opt_f64(s.initial_concentration);
        w.opt_str(s.substance_units.as_deref());
        w.bool(s.has_only_substance_units);
        w.bool(s.boundary_condition);
        w.opt_i32(s.charge);
        w.bool(s.constant);
    }

    w.count(m.parameters.len());
    for p in &m.parameters {
        write_parameter(w, p);
    }

    w.count(m.initial_assignments.len());
    for ia in &m.initial_assignments {
        w.str(&ia.symbol);
        write_expr(w, &ia.math);
    }

    w.count(m.rules.len());
    for rule in &m.rules {
        match rule {
            Rule::Algebraic { math } => {
                w.u8(0);
                write_expr(w, math);
            }
            Rule::Assignment { variable, math } => {
                w.u8(1);
                w.str(variable);
                write_expr(w, math);
            }
            Rule::Rate { variable, math } => {
                w.u8(2);
                w.str(variable);
                write_expr(w, math);
            }
        }
    }

    w.count(m.constraints.len());
    for c in &m.constraints {
        write_expr(w, &c.math);
        w.opt_str(c.message.as_deref());
    }

    w.count(m.reactions.len());
    for rx in &m.reactions {
        w.str(&rx.id);
        w.opt_str(rx.name.as_deref());
        w.bool(rx.reversible);
        w.bool(rx.fast);
        write_species_refs(w, &rx.reactants);
        write_species_refs(w, &rx.products);
        write_species_refs(w, &rx.modifiers);
        match &rx.kinetic_law {
            Some(kl) => {
                w.u8(1);
                write_expr(w, &kl.math);
                w.count(kl.parameters.len());
                for p in &kl.parameters {
                    write_parameter(w, p);
                }
            }
            None => w.u8(0),
        }
    }

    w.count(m.events.len());
    for ev in &m.events {
        w.opt_str(ev.id.as_deref());
        w.opt_str(ev.name.as_deref());
        write_expr(w, &ev.trigger);
        write_opt_expr(w, ev.delay.as_ref());
        w.count(ev.assignments.len());
        for ea in &ev.assignments {
            w.str(&ea.variable);
            write_expr(w, &ea.math);
        }
    }
}

/// Decode a whole [`Model`]; the exact inverse of [`write_model`].
pub fn read_model(r: &mut Reader<'_>) -> Result<Model, String> {
    let mut m = Model::new(r.str("model id")?);
    m.name = r.opt_str("model name")?;

    let n = r.count(1, "function definitions")?;
    for _ in 0..n {
        let id = r.str("function id")?;
        let name = r.opt_str("function name")?;
        let np = r.count(1, "function params")?;
        let mut params = Vec::with_capacity(np);
        for _ in 0..np {
            params.push(r.str("function param")?);
        }
        let body = read_expr(r)?;
        m.function_definitions.push(FunctionDefinition { id, name, params, body });
    }

    let n = r.count(1, "unit definitions")?;
    for _ in 0..n {
        let id = r.str("unit definition id")?;
        let name = r.opt_str("unit definition name")?;
        let nu = r.count(17, "units")?;
        let mut units = Vec::with_capacity(nu);
        for _ in 0..nu {
            let tag = r.u8("unit kind")?;
            let kind = *ALL_KINDS
                .get(tag as usize)
                .ok_or_else(|| format!("invalid unit kind tag {tag}"))?;
            units.push(Unit {
                kind,
                exponent: r.i32("unit exponent")?,
                scale: r.i32("unit scale")?,
                multiplier: r.f64("unit multiplier")?,
            });
        }
        m.unit_definitions.push(UnitDefinition { id, name, units });
    }

    let n = r.count(1, "compartment types")?;
    for _ in 0..n {
        m.compartment_types.push(CompartmentType {
            id: r.str("compartment type id")?,
            name: r.opt_str("compartment type name")?,
        });
    }

    let n = r.count(1, "species types")?;
    for _ in 0..n {
        m.species_types.push(SpeciesType {
            id: r.str("species type id")?,
            name: r.opt_str("species type name")?,
        });
    }

    let n = r.count(1, "compartments")?;
    for _ in 0..n {
        m.compartments.push(Compartment {
            id: r.str("compartment id")?,
            name: r.opt_str("compartment name")?,
            compartment_type: r.opt_str("compartment type ref")?,
            spatial_dimensions: r.u32("spatial dimensions")?,
            size: r.opt_f64("compartment size")?,
            units: r.opt_str("compartment units")?,
            outside: r.opt_str("compartment outside")?,
            constant: r.bool("compartment constant")?,
        });
    }

    let n = r.count(1, "species")?;
    for _ in 0..n {
        m.species.push(Species {
            id: r.str("species id")?,
            name: r.opt_str("species name")?,
            species_type: r.opt_str("species type ref")?,
            compartment: r.key_string("species compartment")?,
            initial_amount: r.opt_f64("initial amount")?,
            initial_concentration: r.opt_f64("initial concentration")?,
            substance_units: r.opt_str("substance units")?,
            has_only_substance_units: r.bool("has only substance units")?,
            boundary_condition: r.bool("boundary condition")?,
            charge: r.opt_i32("charge")?,
            constant: r.bool("species constant")?,
        });
    }

    let n = r.count(1, "parameters")?;
    for _ in 0..n {
        m.parameters.push(read_parameter(r)?);
    }

    let n = r.count(1, "initial assignments")?;
    for _ in 0..n {
        m.initial_assignments.push(InitialAssignment {
            symbol: r.str("initial assignment symbol")?,
            math: read_expr(r)?,
        });
    }

    let n = r.count(1, "rules")?;
    for _ in 0..n {
        m.rules.push(match r.u8("rule tag")? {
            0 => Rule::Algebraic { math: read_expr(r)? },
            1 => Rule::Assignment { variable: r.str("rule variable")?, math: read_expr(r)? },
            2 => Rule::Rate { variable: r.str("rule variable")?, math: read_expr(r)? },
            other => return Err(format!("invalid rule tag {other}")),
        });
    }

    let n = r.count(1, "constraints")?;
    for _ in 0..n {
        m.constraints.push(Constraint {
            math: read_expr(r)?,
            message: r.opt_str("constraint message")?,
        });
    }

    let n = r.count(1, "reactions")?;
    for _ in 0..n {
        let id = r.str("reaction id")?;
        let name = r.opt_str("reaction name")?;
        let reversible = r.bool("reversible")?;
        let fast = r.bool("fast")?;
        let reactants = read_species_refs(r)?;
        let products = read_species_refs(r)?;
        let modifiers = read_species_refs(r)?;
        let kinetic_law = if r.bool("kinetic law")? {
            let math = read_expr(r)?;
            let np = r.count(1, "kinetic law parameters")?;
            let mut parameters = Vec::with_capacity(np);
            for _ in 0..np {
                parameters.push(read_parameter(r)?);
            }
            Some(KineticLaw { math, parameters })
        } else {
            None
        };
        m.reactions.push(Reaction {
            id,
            name,
            reversible,
            fast,
            reactants,
            products,
            modifiers,
            kinetic_law,
        });
    }

    let n = r.count(1, "events")?;
    for _ in 0..n {
        let id = r.opt_str("event id")?;
        let name = r.opt_str("event name")?;
        let trigger = read_expr(r)?;
        let delay = read_opt_expr(r, "event delay")?;
        let na = r.count(1, "event assignments")?;
        let mut assignments = Vec::with_capacity(na);
        for _ in 0..na {
            assignments.push(EventAssignment {
                variable: r.str("event assignment variable")?,
                math: read_expr(r)?,
            });
        }
        m.events.push(Event { id, name, trigger, delay, assignments });
    }

    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;
    use sbml_model::parse_sbml;

    fn sample() -> Model {
        let mut m = ModelBuilder::new("sample")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .parameter("k1", 0.4)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .build();
        m.name = Some("A sample".into());
        m.constraints.push(Constraint {
            math: MathExpr::Apply {
                op: Op::Geq,
                args: vec![MathExpr::Ci("glc".into()), MathExpr::Num(0.0)],
            },
            message: Some("non-negative".into()),
        });
        m.events.push(Event {
            id: Some("e1".into()),
            name: None,
            trigger: MathExpr::Apply {
                op: Op::Gt,
                args: vec![MathExpr::Ci("G6P".into()), MathExpr::Num(2.0)],
            },
            delay: Some(MathExpr::Num(1.0)),
            assignments: vec![EventAssignment {
                variable: "glc".into(),
                math: MathExpr::Piecewise {
                    pieces: vec![(MathExpr::Num(0.0), MathExpr::Const(Constant::True))],
                    otherwise: Some(Box::new(MathExpr::Num(1.0))),
                },
            }],
        });
        m
    }

    #[test]
    fn model_round_trips_bit_exact() {
        let model = sample();
        let mut w = Writer::new();
        write_model(&mut w, &model);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_model(&mut r).expect("clean bytes decode");
        assert!(r.is_done(), "decoder must consume exactly what the encoder wrote");
        assert_eq!(back, model);
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let mut w = Writer::new();
        write_model(&mut w, &sample());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_model(&mut r).is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn hostile_counts_cannot_allocate() {
        // A count of u32::MAX with no bytes behind it must fail in
        // `count`, before any Vec::with_capacity.
        let mut w = Writer::new();
        w.str("m");
        w.u8(0); // no name
        w.u32(u32::MAX); // function definition count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = read_model(&mut r).unwrap_err();
        assert!(err.contains("corrupt count"), "{err}");
    }

    #[test]
    fn deep_expression_nesting_is_capped() {
        let mut w = Writer::new();
        // 200 nested unary minus applications, then garbage.
        for _ in 0..200 {
            w.u8(4); // Apply
            w.u8(2); // Minus
            w.u32(1); // one arg
        }
        w.u8(0);
        w.f64(1.0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = read_expr(&mut r).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn checksum_catches_every_single_bit_flip_and_truncation() {
        // 100 bytes: three full 32-byte rounds, one spare word and a
        // 4-byte tail, so every folding path is covered.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i.wrapping_mul(37) ^ 0x5a) as u8).collect();
        let sum = checksum(&bytes);
        assert_eq!(sum, checksum(&bytes.clone()), "deterministic");
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "flip of bit {bit} at byte {at}");
            }
        }
        for cut in 0..bytes.len() {
            assert_ne!(checksum(&bytes[..cut]), sum, "truncation to {cut} bytes");
        }
        // A zero tail is not the same as no tail.
        assert_ne!(checksum(&[0u8; 3]), checksum(&[0u8; 4]));
        assert_ne!(checksum(&[]), checksum(&[0u8]));
    }

    #[test]
    fn corpus_model_xml_and_codec_agree() {
        // The codec must agree with the XML round trip on a realistic
        // model, including kinetic laws and unit definitions.
        let model = sample();
        let xml = sbml_model::write_sbml(&model);
        let reparsed = parse_sbml(&xml).expect("own XML reparses");
        let mut w = Writer::new();
        write_model(&mut w, &reparsed);
        let bytes = w.into_bytes();
        let decoded = read_model(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(decoded, reparsed);
    }
}
