//! Records the compiler this benchmark was built with, for the host
//! fingerprint it prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "rustc unknown".to_owned(), |text| text.trim().to_owned());
    println!("cargo:rustc-env=DPBFL_BENCH_RUSTC={version}");
    // Without this line Cargo would rerun the script, and rebuild the crate,
    // whenever any file of the package changes its timestamp.
    println!("cargo:rerun-if-changed=build.rs");
}
