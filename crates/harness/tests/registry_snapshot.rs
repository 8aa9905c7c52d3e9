//! An all-cells snapshot of the built-in registry.
//!
//! Every scenario is pinned by the 64-bit FNV-1a of its serialized
//! `ScenarioSpec`, and every cell it expands to by its content key and axis
//! label. A refactor of `registry.rs` or `spec.rs` that claims to change
//! nothing must leave this table untouched: a drifted spec field, a moved
//! cell, a changed override or a relabelled axis all show here. On any
//! drift the test prints the whole actual table, in the source form below.

use dpbfl_harness::registry;
use dpbfl_harness::spec::axes_label;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(scenario, FNV-1a of its spec JSON)`, in registry order.
#[rustfmt::skip]
const SPECS: &[(&str, u64)] = &[
    ("paper/quickstart", 0x124d74054220d9ad),
    ("paper/reference", 0x9ab0790836516ec9),
    ("paper/attack_showdown", 0xa1438cd6f4366739),
    ("paper/gamma_sweep", 0xd1813175c2a07b48),
    ("paper/epsilon_sweep", 0x9c662ae4a088da80),
    ("paper/dataset_sweep", 0x40e23cdcd71d7c80),
    ("paper/protocol_sweep", 0x1c3665136ad0cff9),
    ("paper/non_iid", 0x57f6f06e5b7f4535),
    ("paper/extreme_byz", 0x9a18f204ff0b082c),
    ("paper/accounting", 0xb182845176040429),
    ("paper/table1_matrix", 0xb41de4453710bad6),
    ("paper/table2_ours", 0xa995c17925b2ca93),
    ("paper/table2_dp_krum", 0x6858ef6956f772b1),
    ("paper/table3_sign_dp", 0x24dbdb39c8cfdb48),
    ("paper/table4_side_effect", 0xc6f1f42e167bd570),
    ("paper/table5_ttbb", 0xb399c3c71fe6eeda),
    ("paper/table6_gamma", 0xd9aec1e63dec86cd),
    ("paper/fig3_tuning", 0xc1f90931fa2daafa),
    ("paper/fig4_convergence", 0x8c1e0feedb7ab8bf),
    ("paper/supp_dp_cost", 0x5c5452d904d6233c),
    ("paper/supp_ood_aux", 0xabcfb8925a213e4b),
    ("paper/ablation", 0x8ee4eb4caf9911bb),
    ("scale/million_clients", 0xf4a4c09e7a092985),
    ("scale/smoke", 0x4da6f2e2f3bb5310),
    ("scenarios/adversary_zoo", 0xbca5e768ea8bbec9),
    ("serving/loopback_smoke", 0x89259b3c7c9606fc),
    ("serving/churn_sweep", 0x76f92e961fe7a7c7),
    ("serving/deadline_sweep", 0xb77ea94919444cb6),
    ("smoke/tiny", 0x10bd2417a86016e4),
];

/// `(scenario, cell index, content key, axes label)`, in expansion order.
#[rustfmt::skip]
const CELLS: &[(&str, usize, &str, &str)] = &[
    ("paper/quickstart", 0, "d6341bc58f149381", "defense=two-stage"),
    ("paper/quickstart", 1, "512b661eb395881c", "defense=none"),
    ("paper/reference", 0, "f9b562455b5f1374", "epsilon=2"),
    ("paper/reference", 1, "1cdfef8eb312cb3b", "epsilon=1"),
    ("paper/reference", 2, "451aa850ee7de25b", "epsilon=0.5"),
    ("paper/attack_showdown", 0, "d89fa24b5d77f2f5", "attack=gaussian defense=none"),
    ("paper/attack_showdown", 1, "9a8e1ce4f7d85b06", "attack=gaussian defense=krum(f=15)"),
    ("paper/attack_showdown", 2, "905fcc53334b5272", "attack=gaussian defense=two-stage"),
    ("paper/attack_showdown", 3, "2fb2a1fa9e32e595", "attack=label-flip defense=none"),
    ("paper/attack_showdown", 4, "48a0670c6feb53a6", "attack=label-flip defense=krum(f=15)"),
    ("paper/attack_showdown", 5, "fe7bdf46de4f5a12", "attack=label-flip defense=two-stage"),
    ("paper/attack_showdown", 6, "09b0081dd683e6aa", "attack=opt-lmp defense=none"),
    ("paper/attack_showdown", 7, "e794aae88e3c79d9", "attack=opt-lmp defense=krum(f=15)"),
    ("paper/attack_showdown", 8, "060c88e0ea0a14cf", "attack=opt-lmp defense=two-stage"),
    ("paper/attack_showdown", 9, "89b0042471dca753", "attack=a-little defense=none"),
    ("paper/attack_showdown", 10, "c39280652f12faa0", "attack=a-little defense=krum(f=15)"),
    ("paper/attack_showdown", 11, "c5c9c0a14d6ee3a0", "attack=a-little defense=two-stage"),
    ("paper/attack_showdown", 12, "873cba0a935eaed2", "attack=inner-product defense=none"),
    ("paper/attack_showdown", 13, "5c5778d6d652c2f1", "attack=inner-product defense=krum(f=15)"),
    ("paper/attack_showdown", 14, "c63eeffd4d0465e7", "attack=inner-product defense=two-stage"),
    ("paper/attack_showdown", 15, "ea90680aa65f9751", "attack=adaptive(0.4,label-flip) defense=none"),
    ("paper/attack_showdown", 16, "bd509f3d85bf71a2", "attack=adaptive(0.4,label-flip) defense=krum(f=15)"),
    ("paper/attack_showdown", 17, "b4decf38f4a05d16", "attack=adaptive(0.4,label-flip) defense=two-stage"),
    ("paper/gamma_sweep", 0, "5caacb9349458d6d", "gamma=0.2"),
    ("paper/gamma_sweep", 1, "b326b567694a96f6", "gamma=0.3"),
    ("paper/gamma_sweep", 2, "12959f72dd4cdcbf", "gamma=0.4"),
    ("paper/gamma_sweep", 3, "c9921b77b9a15e98", "gamma=0.5"),
    ("paper/gamma_sweep", 4, "20fd6794d626a621", "gamma=0.6"),
    ("paper/gamma_sweep", 5, "a30aeca3d395010a", "gamma=0.7"),
    ("paper/gamma_sweep", 6, "f7551bddf2681ca3", "gamma=0.8"),
    ("paper/epsilon_sweep", 0, "d6341bc58f149381", "epsilon=2"),
    ("paper/epsilon_sweep", 1, "fe7bdf46de4f5a12", "epsilon=1"),
    ("paper/epsilon_sweep", 2, "057cd6e465da3972", "epsilon=0.5"),
    ("paper/epsilon_sweep", 3, "ecc40cdb8664aeba", "epsilon=0.25"),
    ("paper/dataset_sweep", 0, "d6341bc58f149381", "dataset=mnist-like"),
    ("paper/dataset_sweep", 1, "93b23503ae6aa42d", "dataset=fashion-like"),
    ("paper/dataset_sweep", 2, "e9509a9e0e37e106", "dataset=usps-like"),
    ("paper/protocol_sweep", 0, "5ebf91a8bdf11271", "protocol=plain"),
    ("paper/protocol_sweep", 1, "f9e0d6a18ef526e9", "protocol=clipped-dp(C=1)"),
    ("paper/protocol_sweep", 2, "72f7f8f9a6e3707f", "protocol=paper-dp"),
    ("paper/non_iid", 0, "12959f72dd4cdcbf", "partition=iid"),
    ("paper/non_iid", 1, "29df320a7d43a44e", "partition=non-iid"),
    ("paper/extreme_byz", 0, "74d26db6c47fb985", "n_byzantine=8"),
    ("paper/extreme_byz", 1, "d4912b1ef0670044", "n_byzantine=18"),
    ("paper/accounting", 0, "90ff7c31ff543c6d", "epsilon=2"),
    ("paper/accounting", 1, "8381f666f107485a", "epsilon=1"),
    ("paper/accounting", 2, "4f24c54ad5f7b9a2", "epsilon=0.5"),
    ("paper/accounting", 3, "0cdfac87cb978d00", "epsilon=0.25"),
    ("paper/accounting", 4, "0214e9a9acb5f419", "epsilon=0.125"),
    ("paper/table1_matrix", 0, "f439a8460e0000e4", "seed=1 row=reference"),
    ("paper/table1_matrix", 1, "2674724cb37d173c", "seed=1 row=krum"),
    ("paper/table1_matrix", 2, "89c705b1cdfbecc9", "seed=1 row=coord-median"),
    ("paper/table1_matrix", 3, "6e4819300ed3a42a", "seed=1 row=trimmed-mean"),
    ("paper/table1_matrix", 4, "d61fb8897a856dde", "seed=1 row=rfa"),
    ("paper/table1_matrix", 5, "aa2f1e09c70c2a60", "seed=1 row=dp-sgd+krum"),
    ("paper/table1_matrix", 6, "86b0dbf67eaaf74c", "seed=1 row=sign-dp"),
    ("paper/table1_matrix", 7, "9eebbb2df39d73c7", "seed=1 row=two-stage"),
    ("paper/table2_ours", 0, "11fef3623eedf8fe", "attack=a-little n_byzantine=7"),
    ("paper/table2_ours", 1, "4b35eac2f13e1ae3", "attack=a-little n_byzantine=15"),
    ("paper/table2_ours", 2, "c579c2487762e165", "attack=inner-product n_byzantine=7"),
    ("paper/table2_ours", 3, "65744904e283ee3e", "attack=inner-product n_byzantine=15"),
    ("paper/table2_dp_krum", 0, "083e5d4d4e240155", "attack=a-little n_byzantine=3"),
    ("paper/table2_dp_krum", 1, "c76471aac2a36f49", "attack=a-little n_byzantine=7"),
    ("paper/table2_dp_krum", 2, "faf9b245cfee461c", "attack=inner-product n_byzantine=3"),
    ("paper/table2_dp_krum", 3, "f7a2aa85e8fe9fa8", "attack=inner-product n_byzantine=7"),
    ("paper/table3_sign_dp", 0, "fec04c84466f8905", "seed=1 row=sign-dp(eps=0.21)"),
    ("paper/table3_sign_dp", 1, "05656b5bc3232ca3", "seed=1 row=sign-dp(eps=0.4)"),
    ("paper/table3_sign_dp", 2, "213de040ea12a578", "seed=1 row=ours(byz=40%)"),
    ("paper/table3_sign_dp", 3, "b418a87593a05cb4", "seed=1 row=ours(byz=60%)"),
    ("paper/table4_side_effect", 0, "789cbfb89be6a7f0", "epsilon=2"),
    ("paper/table4_side_effect", 1, "0bf8220b56bf8471", "epsilon=0.5"),
    ("paper/table5_ttbb", 0, "d6341bc58f149381", "attack=label-flip"),
    ("paper/table5_ttbb", 1, "ecee2a5db25b3753", "attack=adaptive(0.2,label-flip)"),
    ("paper/table5_ttbb", 2, "cd1b8344233ac621", "attack=adaptive(0.4,label-flip)"),
    ("paper/table5_ttbb", 3, "c9d6893532f504ef", "attack=adaptive(0.6,label-flip)"),
    ("paper/table5_ttbb", 4, "f7d62c0a5fc3a03d", "attack=adaptive(0.8,label-flip)"),
    ("paper/table6_gamma", 0, "2c15eb247d21e930", "gamma=0.2 epsilon=2"),
    ("paper/table6_gamma", 1, "4921c69a028ae4d7", "gamma=0.2 epsilon=0.5"),
    ("paper/table6_gamma", 2, "ec3fd4ee6e5661f0", "gamma=0.35 epsilon=2"),
    ("paper/table6_gamma", 3, "ce5493d23fdf211d", "gamma=0.35 epsilon=0.5"),
    ("paper/table6_gamma", 4, "64cd42620d454a45", "gamma=0.5 epsilon=2"),
    ("paper/table6_gamma", 5, "ff5f98fc8178e70e", "gamma=0.5 epsilon=0.5"),
    ("paper/table6_gamma", 6, "0dcb939bf58711f9", "gamma=0.65 epsilon=2"),
    ("paper/table6_gamma", 7, "f0d6bcc7315a4b8c", "gamma=0.65 epsilon=0.5"),
    ("paper/table6_gamma", 8, "efe7e7f9d7809c1a", "gamma=0.8 epsilon=2"),
    ("paper/table6_gamma", 9, "57b018f22c3e6fd1", "gamma=0.8 epsilon=0.5"),
    ("paper/fig3_tuning", 0, "b3e61b986cdbddc6", "seed=1 row=eps=2/lr=0.02"),
    ("paper/fig3_tuning", 1, "73e2dfbd4e69080c", "seed=1 row=eps=2/lr=0.08"),
    ("paper/fig3_tuning", 2, "089f1b7f7b64010c", "seed=1 row=eps=2/lr=0.2"),
    ("paper/fig3_tuning", 3, "48a2575a99d6d6c6", "seed=1 row=eps=2/lr=0.8"),
    ("paper/fig3_tuning", 4, "e545e2a19ecd25fd", "seed=1 row=eps=0.5/lr=0.02"),
    ("paper/fig3_tuning", 5, "290fd7e169228b27", "seed=1 row=eps=0.5/lr=0.08"),
    ("paper/fig3_tuning", 6, "bdcc13a3961d8427", "seed=1 row=eps=0.5/lr=0.2"),
    ("paper/fig3_tuning", 7, "7a021e63cbc81efd", "seed=1 row=eps=0.5/lr=0.8"),
    ("paper/fig4_convergence", 0, "62d477159fc2158f", "seed=1 row=mnist-like/byz=20%"),
    ("paper/fig4_convergence", 1, "9eebbb2df39d73c7", "seed=1 row=mnist-like/byz=60%"),
    ("paper/fig4_convergence", 2, "f439a8460e0000e4", "seed=1 row=mnist-like/reference"),
    ("paper/fig4_convergence", 3, "ca549fa9f0024b0b", "seed=1 row=fashion-like/byz=20%"),
    ("paper/fig4_convergence", 4, "6c5c28b5b449e293", "seed=1 row=fashion-like/byz=60%"),
    ("paper/fig4_convergence", 5, "6167b592ed467468", "seed=1 row=fashion-like/reference"),
    ("paper/supp_dp_cost", 0, "d26250bd0fdc1d2d", "seed=1 row=iid/mnist-like/non-dp"),
    ("paper/supp_dp_cost", 1, "e37c94b03487ccab", "seed=1 row=iid/mnist-like/eps=2"),
    ("paper/supp_dp_cost", 2, "ba70a42716d47204", "seed=1 row=iid/mnist-like/eps=0.5"),
    ("paper/supp_dp_cost", 3, "6b61a5e2b48db93f", "seed=1 row=iid/mnist-like/eps=0.125"),
    ("paper/supp_dp_cost", 4, "df117880bb63c0b1", "seed=1 row=iid/fashion-like/non-dp"),
    ("paper/supp_dp_cost", 5, "3c1014a3503307bf", "seed=1 row=iid/fashion-like/eps=2"),
    ("paper/supp_dp_cost", 6, "872a2c9ac5a4d370", "seed=1 row=iid/fashion-like/eps=0.5"),
    ("paper/supp_dp_cost", 7, "85ca7b531fd8960b", "seed=1 row=iid/fashion-like/eps=0.125"),
    ("paper/supp_dp_cost", 8, "0c3ee7f55242b158", "seed=1 row=non-iid/mnist-like/non-dp"),
    ("paper/supp_dp_cost", 9, "0013b42db8ef9552", "seed=1 row=non-iid/mnist-like/eps=2"),
    ("paper/supp_dp_cost", 10, "6fb9f559727290fd", "seed=1 row=non-iid/mnist-like/eps=0.5"),
    ("paper/supp_dp_cost", 11, "0572cdd1286372ea", "seed=1 row=non-iid/mnist-like/eps=0.125"),
    ("paper/supp_dp_cost", 12, "25ece8cb7dc0ed34", "seed=1 row=non-iid/fashion-like/non-dp"),
    ("paper/supp_dp_cost", 13, "4eff2637e7e8357e", "seed=1 row=non-iid/fashion-like/eps=2"),
    ("paper/supp_dp_cost", 14, "b1245765e408a861", "seed=1 row=non-iid/fashion-like/eps=0.5"),
    ("paper/supp_dp_cost", 15, "ae66af838d01aaae", "seed=1 row=non-iid/fashion-like/eps=0.125"),
    ("paper/supp_ood_aux", 0, "e3317e548ebc3a11", "seed=1 row=gaussian/byz=20%/mnist-like/ood-aux"),
    ("paper/supp_ood_aux", 1, "9cd69a0f7adcff76", "seed=1 row=gaussian/byz=20%/mnist-like/in-dist-aux"),
    ("paper/supp_ood_aux", 2, "b627cc7a1fe6d70d", "seed=1 row=gaussian/byz=20%/fashion-like/ood-aux"),
    ("paper/supp_ood_aux", 3, "7385ee5c6799b6ba", "seed=1 row=gaussian/byz=20%/fashion-like/in-dist-aux"),
    ("paper/supp_ood_aux", 4, "159608b7f713b81b", "seed=1 row=gaussian/byz=40%/mnist-like/ood-aux"),
    ("paper/supp_ood_aux", 5, "44d7f110e1004d20", "seed=1 row=gaussian/byz=40%/mnist-like/in-dist-aux"),
    ("paper/supp_ood_aux", 6, "8ad873b228cc8087", "seed=1 row=gaussian/byz=40%/fashion-like/ood-aux"),
    ("paper/supp_ood_aux", 7, "070c158f58f74e74", "seed=1 row=gaussian/byz=40%/fashion-like/in-dist-aux"),
    ("paper/supp_ood_aux", 8, "b5894f930f7a1bb9", "seed=1 row=label-flip/byz=20%/mnist-like/ood-aux"),
    ("paper/supp_ood_aux", 9, "0718ce6788dd199e", "seed=1 row=label-flip/byz=20%/mnist-like/in-dist-aux"),
    ("paper/supp_ood_aux", 10, "b8b20282a18370dd", "seed=1 row=label-flip/byz=20%/fashion-like/ood-aux"),
    ("paper/supp_ood_aux", 11, "a4d9490fd8d7fa2a", "seed=1 row=label-flip/byz=20%/fashion-like/in-dist-aux"),
    ("paper/supp_ood_aux", 12, "4d14186e9ce30eef", "seed=1 row=label-flip/byz=40%/mnist-like/ood-aux"),
    ("paper/supp_ood_aux", 13, "41f6da8836536d5c", "seed=1 row=label-flip/byz=40%/mnist-like/in-dist-aux"),
    ("paper/supp_ood_aux", 14, "2e5b91c0422371b3", "seed=1 row=label-flip/byz=40%/fashion-like/ood-aux"),
    ("paper/supp_ood_aux", 15, "8f4653e51e6793d8", "seed=1 row=label-flip/byz=40%/fashion-like/in-dist-aux"),
    ("paper/ablation", 0, "f439a8460e0000e4", "seed=1 row=reference"),
    ("paper/ablation", 1, "9eebbb2df39d73c7", "seed=1 row=full-protocol"),
    ("paper/ablation", 2, "e4c91a1e3c88a7b3", "seed=1 row=cosine-scoring"),
    ("paper/ablation", 3, "fcb51a2a74ccf22d", "seed=1 row=proportional-weights"),
    ("paper/ablation", 4, "19b7786f8eea4bc2", "seed=1 row=second-stage-only"),
    ("paper/ablation", 5, "8417c9e5f7ef7420", "seed=1 row=first-stage-only"),
    ("paper/ablation", 6, "dabdcaca6d4cc2e3", "seed=1 row=momentum-kept"),
    ("paper/ablation", 7, "d0dcf4ef741e41be", "seed=1 row=selected-count-step"),
    ("paper/ablation", 8, "61b26e85b91da059", "seed=1 row=fltrust"),
    ("scale/million_clients", 0, "db425db8469b49f0", "base"),
    ("scale/smoke", 0, "42872f58adc8d78e", "sampling=0.001"),
    ("scale/smoke", 1, "81ac35a8dcb3f583", "sampling=0.002"),
    ("scenarios/adversary_zoo", 0, "eb8caf2a93b145e7", "attack=sleeper(4,inner-product) defense=two-stage"),
    ("scenarios/adversary_zoo", 1, "62111b3464bfa76a", "attack=sleeper(4,inner-product) defense=none"),
    ("scenarios/adversary_zoo", 2, "54ddca1d78291172", "attack=oscillating(2,1,inner-product) defense=two-stage"),
    ("scenarios/adversary_zoo", 3, "cc29c4a9088272c9", "attack=oscillating(2,1,inner-product) defense=none"),
    ("scenarios/adversary_zoo", 4, "569e55a15a3e02dd", "attack=collusion(0.8) defense=two-stage"),
    ("scenarios/adversary_zoo", 5, "5f36d87a645b5460", "attack=collusion(0.8) defense=none"),
    ("scenarios/adversary_zoo", 6, "658f331947a36184", "attack=sybil-flood(0.95) defense=two-stage"),
    ("scenarios/adversary_zoo", 7, "81597a95867d5723", "attack=sybil-flood(0.95) defense=none"),
    ("scenarios/adversary_zoo", 8, "330cd25ec550d6fd", "attack=adaptive-search(1,0.9,0.25) defense=two-stage"),
    ("scenarios/adversary_zoo", 9, "42f54f79222bf980", "attack=adaptive-search(1,0.9,0.25) defense=none"),
    ("serving/loopback_smoke", 0, "a74b7b5583c4b225", "base"),
    ("serving/churn_sweep", 0, "e87cbb086b2e0910", "flaky_pct=0"),
    ("serving/churn_sweep", 1, "ed1da79cef8fdc4b", "flaky_pct=10"),
    ("serving/churn_sweep", 2, "d930d135888fa5af", "flaky_pct=25"),
    ("serving/deadline_sweep", 0, "d600cc8cd8772cd7", "deadline_ms=0"),
    ("serving/deadline_sweep", 1, "1f355f828816c386", "deadline_ms=250"),
    ("serving/deadline_sweep", 2, "328f7d3641ca1da7", "deadline_ms=2000"),
    ("smoke/tiny", 0, "a2457112bde9a827", "attack=gaussian defense=two-stage"),
    ("smoke/tiny", 1, "3a7e73e0b1a404ce", "attack=gaussian defense=none"),
    ("smoke/tiny", 2, "cd69b3e1660d3dd9", "attack=label-flip defense=two-stage"),
    ("smoke/tiny", 3, "ce2c4b1874a2eb50", "attack=label-flip defense=none"),
];

fn spec_line(name: &str, hash: u64) -> String {
    format!("    ({name:?}, {hash:#018x}),\n")
}

fn cell_line(name: &str, index: usize, key: &str, label: &str) -> String {
    format!("    ({name:?}, {index}, {key:?}, {label:?}),\n")
}

#[test]
fn every_scenario_and_cell_matches_its_snapshot() {
    let (mut specs, mut cells) = (String::new(), String::new());
    for name in registry::names() {
        let spec = registry::get(name).expect("registered name resolves");
        let json = serde_json::to_string(&spec).expect("spec serializes");
        specs.push_str(&spec_line(name, fnv1a(json.as_bytes())));
        for cell in spec.cells() {
            cells.push_str(&cell_line(name, cell.index, &cell.key, &axes_label(&cell)));
        }
    }
    let pinned_specs: String = SPECS.iter().map(|&(n, h)| spec_line(n, h)).collect();
    let pinned_cells: String = CELLS.iter().map(|&(n, i, k, l)| cell_line(n, i, k, l)).collect();
    assert!(
        specs == pinned_specs && cells == pinned_cells,
        "registry snapshot drifted; actual table:\n\nconst SPECS = &[\n{specs}];\n\nconst CELLS = &[\n{cells}];\n"
    );
}

#[test]
fn snapshot_covers_the_whole_registry() {
    assert_eq!(SPECS.len(), registry::names().count());
    let total: usize = registry::names().map(|n| registry::get(n).unwrap().n_cells()).sum();
    assert_eq!(CELLS.len(), total);
}
