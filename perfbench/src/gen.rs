//! Seeded inputs: a small deterministic PRNG and the generator of
//! family hierarchies that the `compile_families` workload checks.

/// SplitMix64: tiny, fast, and the same sequence on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed gap of a Poisson process with `rate`
    /// events per unit time.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Two distinct indices out of `0..n` (`n >= 2`), ascending.
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a.min(b), a.max(b))
    }
}

/// Shape of one generated hierarchy.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Families derived from the base family.
    pub derived: usize,
    /// Classes in every family.
    pub classes: usize,
    /// Families composed from two derived ones (`extends Fa & Fb`).
    pub composed: usize,
}

/// A J&s program over one generated hierarchy, and the lines it prints.
///
/// The base family declares classes `C0..Cn` (each `Ck` for `k > 0`
/// extends an earlier class) with `f()` returning `k`. Every derived
/// family `Fi` further binds a subset of them with `shares`, overriding
/// `f()` to return `100 * i + k`, and declares one method whose
/// `sharing` constraint the checker must verify. Composed families are
/// the sumpair pattern: `extends Fa & Fb adapts F0` with no body. `main`
/// views base objects into every family that shares their class.
///
/// `structure` draws the hierarchy (class parents, shared subsets,
/// composed pairs); `names` draws identifiers and constants of the same
/// length. Drawing the structure from a fixed stream and only the names
/// from the workload seed keeps check cost the same from seed to seed.
pub fn family_program(structure: &mut Rng, names: &mut Rng, shape: Shape) -> (String, Vec<String>) {
    let Shape {
        derived,
        classes,
        composed,
    } = shape;
    let fam = ["F", "G", "H", "K"][names.below(4)];
    let cls = ["C", "D", "E", "M"][names.below(4)];
    let base = 1000 * (1 + names.below(9));
    let parent: Vec<usize> = (0..classes)
        .map(|k| if k == 0 { 0 } else { structure.below(k) })
        .collect();
    let decl = |k: usize, shares: bool| {
        let ext = if k == 0 {
            String::new()
        } else {
            format!(" extends {cls}{}", parent[k])
        };
        let sh = if shares {
            format!(" shares {fam}0.{cls}{k}")
        } else {
            String::new()
        };
        format!("  class {cls}{k}{ext}{sh}")
    };

    let mut src = format!("class {fam}0 {{\n");
    src.push_str(&format!(
        "  class {cls}0 {{ int a = 1; int f() {{ return {base}; }} int g() {{ return this.a; }} }}\n"
    ));
    for k in 1..classes {
        src.push_str(&format!(
            "{} {{ int f() {{ return {}; }} }}\n",
            decl(k, false),
            base + k
        ));
    }
    src.push_str("}\n");

    // Each derived family shares about two thirds of the classes. A
    // family that shares a class must share its subclasses too (a view
    // of `F0!.Ck` may meet any of them), so the set grows from the
    // leaves up: each pick is a class whose subclasses are all in.
    let share_count = (2 * classes).div_ceil(3);
    let mut shared: Vec<Vec<usize>> = vec![Vec::new()];
    for i in 1..=derived {
        let mut ks: Vec<usize> = Vec::new();
        while ks.len() < share_count {
            let ready: Vec<usize> = (0..classes)
                .filter(|k| !ks.contains(k))
                .filter(|&k| (k + 1..classes).all(|c| parent[c] != k || ks.contains(&c)))
                .collect();
            ks.push(ready[structure.below(ready.len())]);
        }
        ks.sort_unstable();
        src.push_str(&format!("class {fam}{i} extends {fam}0 {{\n"));
        for &k in &ks {
            src.push_str(&format!(
                "{} {{ int f() {{ return {}; }} }}\n",
                decl(k, true),
                base + 100 * i + k
            ));
        }
        let c0 = format!("{cls}{}", ks[0]);
        src.push_str(&format!(
            "  int via{i}({fam}0!.{c0} e) sharing {fam}0!.{c0} = {c0} {{\n    final {c0} t = (view {c0})e;\n    return t.f();\n  }}\n}}\n"
        ));
        shared.push(ks);
    }
    let mut pairs = Vec::new();
    for m in 0..composed {
        let (a, b) = structure.pair(derived);
        let (a, b) = (a + 1, b + 1);
        let id = derived + 1 + m;
        src.push_str(&format!(
            "class {fam}{id} extends {fam}{a} & {fam}{b} adapts {fam}0 {{\n}}\n"
        ));
        pairs.push((id, a, b));
    }

    let mut main = String::from("main {\n");
    let mut prints = Vec::new();
    for k in 0..classes {
        main.push_str(&format!(
            "  final {fam}0!.{cls}{k} x{k} = new {fam}0.{cls}{k}();\n  print x{k}.f();\n"
        ));
        prints.push((base + k).to_string());
    }
    for (i, ks) in shared.iter().enumerate().skip(1) {
        for &k in ks {
            main.push_str(&format!(
                "  final {fam}{i}!.{cls}{k} v{i}_{k} = (view {fam}{i}!.{cls}{k})x{k};\n  print v{i}_{k}.f();\n"
            ));
            prints.push((base + 100 * i + k).to_string());
        }
        let k0 = ks[0];
        main.push_str(&format!(
            "  final {fam}{i} d{i} = new {fam}{i}();\n  print d{i}.via{i}(x{k0});\n"
        ));
        prints.push((base + 100 * i + k0).to_string());
    }
    for &(id, a, b) in &pairs {
        let mut ks: Vec<usize> = shared[a].iter().chain(&shared[b]).copied().collect();
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            main.push_str(&format!(
                "  final {fam}{id}!.{cls}{k} w{id}_{k} = (view {fam}{id}!.{cls}{k})x{k};\n  print w{id}_{k} == x{k};\n  print w{id}_{k}.g();\n"
            ));
            prints.push("true".to_string());
            prints.push("1".to_string());
        }
    }
    main.push_str("}\n");
    src.push_str(&main);
    (src, prints)
}
