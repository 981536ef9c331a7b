//! The §2.4 service-dispatch batch workload, shared by the `serve` suite
//! of `jns bench`, the serve bench, and the determinism suite.
//!
//! One *request* is one full service lifecycle: build the dispatcher
//! wiring, dispatch a stream of packets, evolve the live system from
//! `service` to `logService` with a single view change (Fig. 4), then
//! dispatch the same stream through the evolved dispatcher. This is the
//! paper's flagship scenario shaped as the unit of work a front-end
//! would replay per connection.

use jns_core::service;

/// The J&s source of one service-dispatch request handling `packets`
/// packets before the evolution and `packets` after it.
pub fn service_dispatch(packets: u32) -> String {
    let main_body = format!(
        r#"
        final service!.SomeService s = new service.SomeService();
        final service!.EchoService e = new service.EchoService();
        final service!.Dispatcher d = new service.Dispatcher {{ s = s, e = e }};
        final Server srv = new Server {{ disp = d }};
        final service!.Packet p0 = new service.Packet {{ kind = 0, payload = "x" }};
        final service!.Packet p1 = new service.Packet {{ kind = 1, payload = "y" }};
        while (s.handled < {packets}) {{
          final str r0 = d.dispatch(p0);
          final str r1 = d.dispatch(p1);
        }}
        srv.evolve();
        final logService!.Dispatcher d2 = (cast logService!.Dispatcher)srv.disp;
        final logService!.Packet q0 = (view logService!.Packet)p0;
        final logService!.Packet q1 = (view logService!.Packet)p1;
        while (s.handled < {packets} * 2) {{
          final str r2 = d2.dispatch(q0);
          final str r3 = d2.dispatch(q1);
        }}
        print d2.dispatch(q0);
        print d2.dispatch(q1);
        print s.handled;"#
    );
    service::program(&main_body)
}

/// A small fixed-size variant for smoke tests and CI.
pub fn service_dispatch_smoke() -> String {
    service_dispatch(16)
}
