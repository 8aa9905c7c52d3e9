//! Every binary resolves a scenario argument the same way: a typo of a
//! registered name fails with the catalog and a did-you-mean guess.

use std::process::{Command, Output};

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn server_suggests_the_registered_name_for_a_typo() {
    let server = Command::new(env!("CARGO_BIN_EXE_dpbfl-server"))
        .args(["paper/quickstrat", "--in-process"])
        .output()
        .expect("dpbfl-server runs");
    assert_eq!(server.status.code(), Some(1), "{}", stderr(&server));
    assert!(
        stderr(&server).contains("did you mean `paper/quickstart`?"),
        "no suggestion: {}",
        stderr(&server)
    );
    // The very message `dpbfl-exp` prints for the same argument.
    let exp = Command::new(env!("CARGO_BIN_EXE_dpbfl-exp"))
        .args(["show", "paper/quickstrat"])
        .output()
        .expect("dpbfl-exp runs");
    assert_eq!(exp.status.code(), Some(1));
    assert_eq!(stderr(&server), stderr(&exp));
}
