//! Property-based tests of the §3 abstract-interpreter laws for all
//! domains: `⊔` is an upper bound, `⊑` is a partial order compatible with
//! `⊔`, `∇` is an upper-bound operator with `∇(a, a) = a`, widening chains
//! stabilize, and `models` is monotone along `⊑` (γ is monotone). Covers
//! the paper's three evaluation domains (interval, octagon, shape) and the
//! finite-height extensions (sign, constant propagation, parity, products).
//!
//! Also the law memoization rests on: `Hash` follows `Eq`. States that are
//! `==` have the same `content_digest` whatever route produced them, and a
//! domain that caches its hash never hands a stale one to a changed copy.
//! For the `NonRel` instances, which keep a digest per binding and share
//! their map, that is checked after every step of a random operation
//! sequence (`law_digest_and_sharing`).

use dai_domains::constprop::{Const, ConstDomain};
use dai_domains::interval::{AbsVal, Interval};
use dai_domains::nonrel::{Lifted, NonRel, ValueLattice};
use dai_domains::parity::{Parity, ParityDomain};
use dai_domains::sign::Sign;
use dai_domains::{
    AbstractDomain, Bool3, IntervalDomain, OctagonDomain, Prod, ShapeDomain, SignDomain,
};
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::{parse_expr, Expr, Stmt, Symbol};
use dai_memo::content_digest;
use dai_persist::{Persist, Reader, Writer};
use proptest::prelude::*;

// ---------- generators ----------

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-50i64..50, 0i64..40).prop_map(|(lo, w)| Interval::of(lo, lo + w))
}

fn arb_absval() -> impl Strategy<Value = AbsVal> {
    prop_oneof![
        arb_interval().prop_map(AbsVal::Num),
        Just(AbsVal::Boolean(Bool3::True)),
        Just(AbsVal::Boolean(Bool3::Top)),
        Just(AbsVal::NullRef),
        Just(AbsVal::NodeRef),
        Just(AbsVal::AnyRef),
        Just(AbsVal::Top),
    ]
}

fn arb_interval_state() -> impl Strategy<Value = IntervalDomain> {
    prop::collection::vec((0usize..4, arb_absval()), 0..4).prop_map(|binds| {
        IntervalDomain::from_bindings(
            binds
                .into_iter()
                .map(|(i, v)| (Symbol::new(format!("v{i}")), v)),
        )
    })
}

/// Octagon constants: mostly small; sometimes within two of `±2^40`, the
/// octagon's `EXACT_CLOSURE_BOUND`, past which tightening leaves the matrix
/// for a full closure; sometimes within four of `i64::MAX` (its `INF`) or
/// of `i64::MIN + 1`, where bound arithmetic saturates.
fn arb_octagon_const() -> impl Strategy<Value = i64> {
    const EXACT_CLOSURE_BOUND: i64 = 1 << 40;
    prop_oneof![
        -10i64..10,
        -10i64..10,
        -10i64..10,
        -10i64..10,
        (-2i64..3).prop_map(|k| EXACT_CLOSURE_BOUND + k),
        (-2i64..3).prop_map(|k| -EXACT_CLOSURE_BOUND + k),
        (0i64..5).prop_map(|k| i64::MAX - k),
        (0i64..5).prop_map(|k| i64::MIN + 1 + k),
    ]
}

/// Octagon states built by random assignment/assume sequences (keeps them
/// satisfiable-by-construction or ⊥, both valid).
fn arb_octagon_state() -> impl Strategy<Value = OctagonDomain> {
    prop::collection::vec((0usize..3, arb_octagon_const(), 0usize..3), 0..5).prop_map(|ops| {
        let mut s = OctagonDomain::top();
        for (v, c, kind) in ops {
            let var = format!("v{v}");
            s = match kind {
                0 => s.transfer(&Stmt::Assign(
                    var.into(),
                    parse_expr(&c.to_string()).unwrap(),
                )),
                1 => s.transfer(&Stmt::Assign(
                    var.clone().into(),
                    parse_expr(&format!("v{} + {c}", (v + 1) % 3)).unwrap(),
                )),
                _ => s.transfer(&Stmt::Assume(
                    parse_expr(&format!("v{v} <= v{} + {c}", (v + 1) % 3)).unwrap(),
                )),
            };
        }
        s
    })
}

fn arb_sign() -> impl Strategy<Value = Sign> {
    prop_oneof![
        Just(Sign::NEG),
        Just(Sign::ZERO),
        Just(Sign::POS),
        Just(Sign::NONPOS),
        Just(Sign::NONNEG),
        Just(Sign::NONZERO),
        Just(Sign::TOP),
    ]
}

fn arb_sign_state() -> impl Strategy<Value = SignDomain> {
    prop::collection::vec((0usize..4, arb_sign()), 0..4).prop_map(|binds| {
        SignDomain::from_bindings(
            binds
                .into_iter()
                .map(|(i, s)| (Symbol::new(format!("v{i}")), s)),
        )
    })
}

fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        (-20i64..20).prop_map(Const::Int),
        any::<bool>().prop_map(Const::Bool),
        Just(Const::Null),
    ]
}

fn arb_const_state() -> impl Strategy<Value = ConstDomain> {
    prop::collection::vec((0usize..4, arb_const()), 0..4).prop_map(|binds| {
        ConstDomain::from_bindings(
            binds
                .into_iter()
                .map(|(i, c)| (Symbol::new(format!("v{i}")), c)),
        )
    })
}

fn arb_parity_state() -> impl Strategy<Value = ParityDomain> {
    prop::collection::vec((0usize..4, any::<bool>()), 0..4).prop_map(|binds| {
        ParityDomain::from_bindings(binds.into_iter().map(|(i, even)| {
            let parity = if even { Parity::Even } else { Parity::Odd };
            (Symbol::new(format!("v{i}")), parity)
        }))
    })
}

/// Steps of `law_digest_and_sharing`: (operation, variable, constant).
fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    prop::collection::vec((0usize..5, 0usize..4, -5i64..5), 0..8)
}

fn arb_product_state() -> impl Strategy<Value = Prod<IntervalDomain, SignDomain>> {
    (arb_interval_state(), arb_sign_state()).prop_map(|(a, b)| Prod::new(a, b))
}

fn arb_shape_state() -> impl Strategy<Value = ShapeDomain> {
    prop::collection::vec(0usize..5, 0..6).prop_map(|ops| {
        let mut s = ShapeDomain::with_lists(&["p"]);
        for op in ops {
            s = match op {
                0 => s.transfer(&Stmt::Assign("q".into(), dai_lang::Expr::AllocNode)),
                1 => s.transfer(&Stmt::Assign("r".into(), parse_expr("p").unwrap())),
                2 => s.transfer(&Stmt::Assume(parse_expr("p != null").unwrap())),
                3 => s.transfer(&Stmt::Assign("r".into(), parse_expr("p.next").unwrap())),
                _ => s.transfer(&Stmt::Assign("p".into(), parse_expr("null").unwrap())),
            };
        }
        s
    })
}

// ---------- the laws, generic ----------

fn law_join_upper_bound<D: AbstractDomain>(a: &D, b: &D) {
    let j = a.join(b);
    prop_assert_ok(a.leq(&j), "a ⊑ a⊔b");
    prop_assert_ok(b.leq(&j), "b ⊑ a⊔b");
}

fn law_widen_upper_bound<D: AbstractDomain>(a: &D, b: &D) {
    let w = a.widen(b);
    let j = a.join(b);
    prop_assert_ok(j.leq(&w), "a⊔b ⊑ a∇b");
}

fn law_widen_reflexive<D: AbstractDomain>(a: &D) {
    // Required so converged loops stay converged: ∇(a, a) = a on widen
    // outputs. Feed a through one widen first to reach the canonical form
    // widening operates on.
    let c = a.widen(a);
    prop_assert_ok(c.widen(&c) == c, "∇(c, c) = c on widen outputs");
}

fn law_leq_partial_order<D: AbstractDomain>(a: &D, b: &D) {
    prop_assert_ok(a.leq(a), "reflexivity");
    prop_assert_ok(D::bottom().leq(a), "⊥ least");
    if a.leq(b) && b.leq(a) {
        // Antisymmetry up to semantic equality: join must be a no-gain.
        let j = a.join(b);
        prop_assert_ok(j.leq(a) && j.leq(b), "mutual ⊑ implies join adds nothing");
    }
}

fn law_widening_chain_stabilizes<D: AbstractDomain>(mut acc: D, steps: &[D]) {
    // acc, acc ∇ s1, (acc ∇ s1) ∇ s2, ... must stabilize within the test's
    // horizon when the same steps repeat.
    for _round in 0..60 {
        let mut changed = false;
        for s in steps {
            let grown = acc.join(s);
            let next = acc.widen(&grown);
            if next != acc {
                acc = next;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
    panic!("widening chain failed to stabilize");
}

/// `x := c` — exact and overwriting in every shipped domain, so two routes
/// that end in the same assignments end in `==` states.
fn assign_const<D: AbstractDomain>(s: &D, x: &str, c: i64) -> D {
    s.transfer(&Stmt::Assign(x.into(), Expr::Int(c)))
}

fn law_hash_follows_eq<D: AbstractDomain + Persist>(a: &D) {
    // A copy changed after its original was hashed: its digest is its own,
    // and the original keeps the one it had.
    let hashed = content_digest(a);
    let changed = assign_const(&a.clone(), "v0", 41);
    prop_assert_ok(
        (changed == *a) == (content_digest(&changed) == hashed),
        "a changed copy does not inherit its original's digest",
    );
    prop_assert_ok(content_digest(a) == hashed, "hashing is repeatable");

    // `==` by different routes: overwritten and written back; through the
    // wire format (which re-derives what it does not store — an octagon
    // comes back flagged unclosed); fresh variables met in the other order.
    let direct = assign_const(&assign_const(a, "fresh_b", 2), "v0", 3);
    let mut w = Writer::new();
    direct.put(&mut w);
    let bytes = w.into_bytes();
    let routes = [
        (
            "overwrite and write back",
            assign_const(&assign_const(&direct.clone(), "v0", 7), "v0", 3),
        ),
        (
            "persist round trip",
            D::get(&mut Reader::new(&bytes)).expect("decodes its own encoding"),
        ),
        (
            "other tracking order",
            assign_const(&assign_const(a, "v0", 3), "fresh_b", 2),
        ),
    ];
    for (route, other) in routes {
        prop_assert_ok(other == direct, route);
        prop_assert_ok(content_digest(&other) == content_digest(&direct), route);
    }
}

/// What a `NonRel` state owes its kept digest and its shared map.
fn check_nonrel<V: ValueLattice>(s: &NonRel<V>) {
    let Some(env) = s.env() else {
        return;
    };
    let rebuilt = NonRel::from_bindings(env.iter().map(|(k, v)| (k.clone(), v.clone())));
    prop_assert_ok(
        rebuilt.digest() == s.digest(),
        "the kept digest is the digest of the bindings from scratch",
    );
    prop_assert_ok(
        rebuilt == *s && content_digest(&rebuilt) == content_digest(s),
        "Hash follows Eq for states built along different paths",
    );
    prop_assert_ok(
        s.clone().identity() == s.identity(),
        "clone is pointer-equal",
    );
    if let Some((k, v)) = env.iter().next() {
        let held = || Lifted::Val(v.clone());
        prop_assert_ok(
            s.with_binding(k, held()).identity() == s.identity(),
            "binding what is held copies nothing",
        );
        let back = s.with_binding(k, Lifted::Top).with_binding(k, held());
        prop_assert_ok(
            back == *s && back.digest() == s.digest(),
            "unbinding and rebinding restores the digest",
        );
    }
}

/// `check_nonrel`, and decode(encode(s)) == s with an equal digest.
fn check_nonrel_on_the_wire<V: ValueLattice + Persist>(s: &NonRel<V>) {
    check_nonrel(s);
    let mut w = Writer::new();
    s.put(&mut w);
    let back = NonRel::<V>::get(&mut Reader::new(&w.into_bytes())).expect("decodes");
    prop_assert_ok(
        back == *s && back.digest() == s.digest(),
        "a decoded state equals the encoded one, digest included",
    );
}

/// Runs `check` on `a` and after every step of a random sequence of
/// assignments (`with_binding` underneath), joins and widenings with `b`,
/// and refinements.
fn law_digest_and_sharing<D: AbstractDomain>(
    a: &D,
    b: &D,
    ops: &[(usize, usize, i64)],
    check: impl Fn(&D),
) {
    let mut s = a.clone();
    check(&s);
    for &(op, v, c) in ops {
        let (x, y) = (format!("v{v}"), format!("v{}", (v + 1) % 4));
        s = match op {
            0 => assign_const(&s, &x, c),
            1 => s.transfer(&Stmt::Assign(
                x.into(),
                parse_expr(&format!("{y} * {c} + 1")).unwrap(),
            )),
            2 => s.join(b),
            3 => s.widen(b),
            _ => s.transfer(&Stmt::Assume(
                parse_expr(&format!("{x} <= {c} || {x} % 2 == {y}")).unwrap(),
            )),
        };
        check(&s);
    }
}

fn prop_assert_ok(cond: bool, msg: &str) {
    assert!(cond, "domain law violated: {msg}");
}

// ---------- instantiations ----------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn interval_laws(a in arb_interval_state(), b in arb_interval_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn interval_widening_chains(a in arb_interval_state(), steps in prop::collection::vec(arb_interval_state(), 1..4)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn octagon_laws(a in arb_octagon_state(), b in arb_octagon_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn octagon_widening_chains(a in arb_octagon_state(), steps in prop::collection::vec(arb_octagon_state(), 1..3)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn shape_laws(a in arb_shape_state(), b in arb_shape_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn shape_widening_chains(a in arb_shape_state(), steps in prop::collection::vec(arb_shape_state(), 1..3)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn sign_laws(a in arb_sign_state(), b in arb_sign_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn sign_widening_chains(a in arb_sign_state(), steps in prop::collection::vec(arb_sign_state(), 1..4)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn constprop_laws(a in arb_const_state(), b in arb_const_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn constprop_widening_chains(a in arb_const_state(), steps in prop::collection::vec(arb_const_state(), 1..4)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn parity_laws(a in arb_parity_state(), b in arb_parity_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
    }

    #[test]
    fn parity_widening_chains(a in arb_parity_state(), steps in prop::collection::vec(arb_parity_state(), 1..4)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn interval_digest_and_sharing(a in arb_interval_state(), b in arb_interval_state(), ops in arb_ops()) {
        law_digest_and_sharing(&a, &b, &ops, check_nonrel_on_the_wire);
    }

    #[test]
    fn sign_digest_and_sharing(a in arb_sign_state(), b in arb_sign_state(), ops in arb_ops()) {
        law_digest_and_sharing(&a, &b, &ops, check_nonrel_on_the_wire);
    }

    #[test]
    fn constprop_digest_and_sharing(a in arb_const_state(), b in arb_const_state(), ops in arb_ops()) {
        law_digest_and_sharing(&a, &b, &ops, check_nonrel_on_the_wire);
    }

    #[test]
    fn parity_digest_and_sharing(a in arb_parity_state(), b in arb_parity_state(), ops in arb_ops()) {
        law_digest_and_sharing(&a, &b, &ops, check_nonrel);
    }

    #[test]
    fn product_digest_and_sharing(a in arb_product_state(), b in arb_product_state(), ops in arb_ops()) {
        law_digest_and_sharing(&a, &b, &ops, |p| {
            check_nonrel_on_the_wire(p.first());
            check_nonrel_on_the_wire(p.second());
        });
    }

    #[test]
    fn product_laws(a in arb_product_state(), b in arb_product_state()) {
        law_join_upper_bound(&a, &b);
        law_widen_upper_bound(&a, &b);
        law_widen_reflexive(&a);
        law_leq_partial_order(&a, &b);
        law_hash_follows_eq(&a);
    }

    #[test]
    fn product_widening_chains(a in arb_product_state(), steps in prop::collection::vec(arb_product_state(), 1..3)) {
        law_widening_chain_stabilizes(a, &steps);
    }

    #[test]
    fn sign_models_monotone(a in arb_sign(), b in arb_sign(), n in -60i64..60) {
        if a.leq(b) && a.contains(n) {
            prop_assert!(b.contains(n), "γ must be monotone on signs");
        }
    }

    #[test]
    fn product_models_iff_both(a in arb_interval_state(), s in arb_sign_state(), n in -20i64..20) {
        let p = Prod::new(a.clone(), s.clone());
        let mut c = ConcreteState::new();
        c.env.insert("v0".into(), Value::Int(n));
        if !p.is_bottom() {
            prop_assert_eq!(p.models(&c), a.models(&c) && s.models(&c));
        }
    }

    #[test]
    fn interval_models_monotone(v in arb_absval(), w in arb_absval(), n in -60i64..60) {
        // γ monotone: v ⊑ w and σ ⊨ v implies σ ⊨ w — at the value level.
        let concrete = Value::Int(n);
        if v.leq(&w) && v.models(&concrete) {
            prop_assert!(w.models(&concrete));
        }
    }

    #[test]
    fn interval_join_models_both_sides(a in arb_interval_state(), b in arb_interval_state(), n in -20i64..20) {
        // Anything modelled by a side is modelled by the join.
        let mut c = ConcreteState::new();
        c.env.insert("v0".into(), Value::Int(n));
        let j = a.join(&b);
        if a.models(&c) || b.models(&c) {
            prop_assert!(j.models(&c));
        }
    }
}

#[test]
fn transfer_preserves_bottom() {
    let stmts = [
        Stmt::Assign("x".into(), parse_expr("1").unwrap()),
        Stmt::Assume(parse_expr("x < 5").unwrap()),
        Stmt::Skip,
    ];
    for s in &stmts {
        assert!(IntervalDomain::bottom().transfer(s).is_bottom());
        assert!(OctagonDomain::bottom().transfer(s).is_bottom());
        assert!(ShapeDomain::bottom().transfer(s).is_bottom());
        assert!(SignDomain::bottom().transfer(s).is_bottom());
        assert!(ConstDomain::bottom().transfer(s).is_bottom());
        assert!(ParityDomain::bottom().transfer(s).is_bottom());
        assert!(Prod::<IntervalDomain, SignDomain>::bottom()
            .transfer(s)
            .is_bottom());
    }
}

/// `a ⊔ b ⊑ a ∇ b` fails for octagons whose bounds saturate `i64`, which
/// the boundary constants of `arb_octagon_state` reach (`octagon_laws`
/// first draws one at case 4,867 of its stream). `v2 := v0 + i64::MAX`
/// writes the odd unary bound `−2·v2 ≤ −(2⁶³ − 1)` and keeps the matrix
/// flagged strongly closed; `s ∇ s` is the same matrix flagged unclosed,
/// and its closure tightens that bound to `i64::MIN`, below `s`'s. Flagging
/// such an assignment unclosed instead makes the later `close()` round
/// other states by path order, and `law_hash_follows_eq`'s two tracking
/// orders then differ within the first 64 cases.
#[test]
#[ignore = "ROADMAP item 3: octagon closure is not canonical once a bound saturates i64"]
fn octagon_widening_covers_the_join_when_a_bound_saturates() {
    let s = OctagonDomain::top()
        .transfer(&Stmt::Assign("v0".into(), Expr::Int(0)))
        .transfer(&Stmt::Assign(
            "v2".into(),
            parse_expr(&format!("v0 + {}", i64::MAX)).unwrap(),
        ));
    law_widen_upper_bound(&s, &s);
}
