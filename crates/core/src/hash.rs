//! Structural hashing of lowered plans.
//!
//! The sweep service (`beast-engine::service`) memoizes completed sub-sweeps
//! keyed by *what was evaluated*, not by how the request was phrased. Two
//! requests that lower to the same [`LoweredPlan`] — same loop nest, same
//! folded device constants, same constraint expressions — must collide, and
//! any semantic difference (a changed bound, a different device parameter
//! folded into a constant, a reordered check) must separate them.
//!
//! [`LoweredPlan::structural_hash`] provides that identity: a 64-bit FNV-1a
//! digest over the lowered step sequence with every node kind tagged by a
//! distinct byte, so `Neg(x)` and `Not(x)` (or `Values([2])` and a range that
//! happens to enumerate `[2]`) cannot alias byte-wise. Because lowering folds
//! constants (including string settings and device properties) into
//! [`IntExpr::Const`] leaves, device parameters are part of the hash for
//! free — the service layers an explicit scope string on top only as
//! belt-and-suspenders.
//!
//! The hash deliberately covers the *lowered* form, not the source `Space`:
//! opaque (closure-backed) steps have no stable byte representation, so
//! plans containing them are flagged by [`LoweredPlan::has_opaque_steps`]
//! and never cached.

use std::sync::Arc;

use crate::expr::Builtin;
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};

/// Streaming 64-bit FNV-1a hasher.
///
/// Used instead of `std::hash::DefaultHasher` because the digest is persisted
/// (cache files, checkpoint headers) and must be stable across Rust versions
/// and platforms; `DefaultHasher`'s algorithm is explicitly unspecified.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (also the rolling-hash base of the engine's survivor
/// fingerprint).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k = 0..=8`: absorbing `k` zero bytes only
/// multiplies the state by the prime `k` times, so [`Fnv1a::write_u64`]
/// folds a run of high zero bytes into one multiply by `PRIME_POW[k]`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Absorb a 64-bit value, little-endian. The digest is byte-wise FNV-1a
    /// over the eight bytes; the high zero bytes (most of them, for the
    /// small values sweeps hash) are folded into the multiply of the last
    /// significant byte, since `(h ^ 0) · p = h · p`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        let mut h = self.0;
        let mut rest = v;
        for _ in zeros..7 {
            h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        // The last significant byte (the first zero byte when `v == 0`)
        // takes its own multiply and those of the zero run above it.
        self.0 = (h ^ rest).wrapping_mul(PRIME_POW[(zeros + 1).min(8)]);
    }

    /// Absorb a signed 64-bit value, little-endian two's complement.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorb bytes as they are, with no length prefix: hashing a whole
    /// byte string this way gives its plain FNV-1a digest.
    #[inline]
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorb a length-prefixed byte string (prefix prevents concatenation
    /// ambiguity between adjacent variable-length fields).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Current digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

// Node-kind tags. Every variant absorbed into the digest is preceded by one
// of these so that structurally different trees cannot serialize to the same
// byte stream. Values are arbitrary but frozen: changing them invalidates
// every persisted cache file.
const TAG_CONST: u8 = 0x01;
const TAG_SLOT: u8 = 0x02;
const TAG_BIN: u8 = 0x03;
const TAG_NEG: u8 = 0x04;
const TAG_NOT: u8 = 0x05;
const TAG_TERNARY: u8 = 0x06;
const TAG_CALL2: u8 = 0x07;
const TAG_ABS: u8 = 0x08;

const TAG_ITER_RANGE: u8 = 0x10;
const TAG_ITER_VALUES: u8 = 0x11;
const TAG_ITER_OPAQUE: u8 = 0x12;

const TAG_BODY_EXPR: u8 = 0x18;
const TAG_BODY_OPAQUE: u8 = 0x19;

const TAG_STEP_BIND: u8 = 0x20;
const TAG_STEP_DEFINE: u8 = 0x21;
const TAG_STEP_CHECK: u8 = 0x22;
const TAG_STEP_VISIT: u8 = 0x23;

fn bin_op_tag(op: IntBinOp) -> u8 {
    match op {
        IntBinOp::Add => 0x40,
        IntBinOp::Sub => 0x41,
        IntBinOp::Mul => 0x42,
        IntBinOp::Div => 0x43,
        IntBinOp::FloorDiv => 0x44,
        IntBinOp::Rem => 0x45,
        IntBinOp::Lt => 0x46,
        IntBinOp::Le => 0x47,
        IntBinOp::Gt => 0x48,
        IntBinOp::Ge => 0x49,
        IntBinOp::Eq => 0x4a,
        IntBinOp::Ne => 0x4b,
        IntBinOp::And => 0x4c,
        IntBinOp::Or => 0x4d,
    }
}

fn builtin_tag(b: Builtin) -> u8 {
    match b {
        Builtin::Min => 0x50,
        Builtin::Max => 0x51,
        Builtin::Abs => 0x52,
        Builtin::DivCeil => 0x53,
        Builtin::Gcd => 0x54,
        Builtin::RoundUp => 0x55,
    }
}

/// Absorb an expression tree, prefix order with kind tags.
pub fn hash_int_expr(h: &mut Fnv1a, e: &IntExpr) {
    match e {
        IntExpr::Const(c) => {
            h.write_u8(TAG_CONST);
            h.write_i64(*c);
        }
        IntExpr::Slot(s) => {
            h.write_u8(TAG_SLOT);
            h.write_u64(u64::from(*s));
        }
        IntExpr::Bin(op, a, b) => {
            h.write_u8(TAG_BIN);
            h.write_u8(bin_op_tag(*op));
            hash_int_expr(h, a);
            hash_int_expr(h, b);
        }
        IntExpr::Neg(a) => {
            h.write_u8(TAG_NEG);
            hash_int_expr(h, a);
        }
        IntExpr::Not(a) => {
            h.write_u8(TAG_NOT);
            hash_int_expr(h, a);
        }
        IntExpr::Ternary(c, t, f) => {
            h.write_u8(TAG_TERNARY);
            hash_int_expr(h, c);
            hash_int_expr(h, t);
            hash_int_expr(h, f);
        }
        IntExpr::Call2(b, x, y) => {
            h.write_u8(TAG_CALL2);
            h.write_u8(builtin_tag(*b));
            hash_int_expr(h, x);
            hash_int_expr(h, y);
        }
        IntExpr::Abs(a) => {
            h.write_u8(TAG_ABS);
            hash_int_expr(h, a);
        }
    }
}

fn hash_iter(h: &mut Fnv1a, domain: &LIter) {
    match domain {
        LIter::Range { start, stop, step } => {
            h.write_u8(TAG_ITER_RANGE);
            hash_int_expr(h, start);
            hash_int_expr(h, stop);
            hash_int_expr(h, step);
        }
        LIter::Values(v) => {
            h.write_u8(TAG_ITER_VALUES);
            h.write_u64(v.len() as u64);
            for &x in v {
                h.write_i64(x);
            }
        }
        LIter::Opaque { iter } => {
            h.write_u8(TAG_ITER_OPAQUE);
            h.write_u64(*iter as u64);
        }
    }
}

fn hash_body(h: &mut Fnv1a, body: &LBody) {
    match body {
        LBody::Expr(e) => {
            h.write_u8(TAG_BODY_EXPR);
            hash_int_expr(h, e);
        }
        LBody::Opaque => h.write_u8(TAG_BODY_OPAQUE),
    }
}

fn hash_names(h: &mut Fnv1a, names: &[Arc<str>]) {
    h.write_u64(names.len() as u64);
    for n in names {
        h.write_bytes(n.as_bytes());
    }
}

impl LoweredPlan {
    /// 64-bit structural digest of the lowered plan.
    ///
    /// Covers the step sequence (loop structure, domains, folded constants,
    /// derived bodies, constraint predicates, hoisting depths), the slot
    /// count, and the slot names. Two plans hash equal iff the compiled
    /// engine would execute byte-identical programs over identically-named
    /// slots; any change to a bound, constant, operator, or step order
    /// changes the digest.
    ///
    /// Opaque (closure-backed) steps are absorbed only by their space index,
    /// which does not pin the closure's behavior — callers memoizing on this
    /// hash must reject plans where [`LoweredPlan::has_opaque_steps`] is
    /// true.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(self.n_slots));
        hash_names(&mut h, &self.slot_names);
        h.write_u64(self.steps.len() as u64);
        for step in &self.steps {
            match step {
                LStep::Bind { iter, slot, depth, domain } => {
                    h.write_u8(TAG_STEP_BIND);
                    h.write_u64(*iter as u64);
                    h.write_u64(u64::from(*slot));
                    h.write_u64(*depth as u64);
                    hash_iter(&mut h, domain);
                }
                LStep::Define { derived, slot, body } => {
                    h.write_u8(TAG_STEP_DEFINE);
                    h.write_u64(*derived as u64);
                    h.write_u64(u64::from(*slot));
                    hash_body(&mut h, body);
                }
                LStep::Check { constraint, body } => {
                    h.write_u8(TAG_STEP_CHECK);
                    h.write_u64(*constraint as u64);
                    hash_body(&mut h, body);
                }
                LStep::Visit => h.write_u8(TAG_STEP_VISIT),
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::var;
    use crate::plan::{Plan, PlanOptions};
    use crate::space::Space;

    fn lowered(cap: i64, hi: i64) -> LoweredPlan {
        let s = Space::builder("hash")
            .constant("cap", cap)
            .range("a", 1, hi)
            .range("b", 1, 9)
            .derived("t", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("t").gt(var("cap")))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    #[test]
    fn equal_plans_hash_equal() {
        assert_eq!(lowered(16, 9).structural_hash(), lowered(16, 9).structural_hash());
    }

    #[test]
    fn changed_constant_changes_hash() {
        // `cap` folds into the Check body as a literal — this is exactly how
        // device parameters distinguish cache keys.
        assert_ne!(lowered(16, 9).structural_hash(), lowered(32, 9).structural_hash());
    }

    #[test]
    fn changed_bound_changes_hash() {
        assert_ne!(lowered(16, 9).structural_hash(), lowered(16, 17).structural_hash());
    }

    #[test]
    fn operator_and_shape_do_not_alias() {
        let mut a = Fnv1a::new();
        hash_int_expr(&mut a, &IntExpr::Neg(Box::new(IntExpr::Slot(0))));
        let mut b = Fnv1a::new();
        hash_int_expr(&mut b, &IntExpr::Not(Box::new(IntExpr::Slot(0))));
        assert_ne!(a.finish(), b.finish());

        let add = IntExpr::Bin(
            IntBinOp::Add,
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Slot(1)),
        );
        let sub = IntExpr::Bin(
            IntBinOp::Sub,
            Box::new(IntExpr::Slot(0)),
            Box::new(IntExpr::Slot(1)),
        );
        let mut ha = Fnv1a::new();
        hash_int_expr(&mut ha, &add);
        let mut hs = Fnv1a::new();
        hash_int_expr(&mut hs, &sub);
        assert_ne!(ha.finish(), hs.finish());
    }

    #[test]
    fn fnv_primitives_are_pinned() {
        // The digest is persisted in cache files, so the byte-level FNV-1a
        // behavior must stay frozen. Reference value: FNV-1a("a") from the
        // published test vectors.
        let mut h = Fnv1a::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    /// The zero-run fold in `write_u64` is invisible: it equals byte-wise
    /// FNV-1a over the little-endian bytes, chained from a non-trivial
    /// state, on the edge values and on 10,000 seeded ones.
    #[test]
    fn folded_write_u64_equals_bytewise_fnv() {
        let bytewise = |h: &mut Fnv1a, v: u64| h.write_raw(&v.to_le_bytes());
        let mut values = vec![0, 1, 0xff, 0x100, u64::MAX, -1i64 as u64, i64::MIN as u64];
        values.extend((0..64).map(|b| 1u64 << b));
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            // xorshift64, then a random byte length so every zero-run
            // length is covered, not just full-width values.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x >> (8 * (x % 9)).min(63));
        }
        let (mut folded, mut reference) = (Fnv1a::new(), Fnv1a::new());
        for &v in &values {
            let (mut f, mut r) = (Fnv1a::new(), Fnv1a::new());
            f.write_u64(v);
            bytewise(&mut r, v);
            assert_eq!(f.finish(), r.finish(), "fresh state, value {v:#x}");
            folded.write_u64(v);
            bytewise(&mut reference, v);
            assert_eq!(folded.finish(), reference.finish(), "chained state, value {v:#x}");
        }
    }

    #[test]
    fn fnv_bytes_are_length_prefixed() {
        let mut a = Fnv1a::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Fnv1a::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
