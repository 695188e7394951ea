//! Nonblocking-context fixture. The root `event_loop` is clean in
//! isolation; the blocking work hides one call down where only the
//! interprocedural pass can see it: a filesystem read in `refresh`, an edge
//! into the denied entry point `route` from `dispatch`, and a pragma'd
//! checkpoint write.
//!
//! The test's lint.toml names `app:event_loop` as the root and denies
//! calls into `app:route`.

pub fn event_loop(r: Req) {
    refresh();
    dispatch(r);
    checkpoint();
}

fn refresh() {
    let _ = fs::read_to_string("state.txt");
}

fn dispatch(r: Req) {
    route(r);
}

pub fn route(r: Req) {
    let _ = r;
}

fn checkpoint() {
    // lint: allow(nonblocking, "fixture: justified checkpoint write")
    let _ = fs::write("ckpt", "x");
}
