//! Regression: a shard worker may be the one that drops the last handle
//! onto a cluster-backed gateway. A client that lets go of everything
//! straight after its final `await` races the worker's completion wake,
//! which still holds the gateway; when the wake loses, `PimCluster::drop`
//! runs on that worker and must not `join` the thread it is running on.
//!
//! One test per binary on purpose: it installs a process-wide panic hook.

use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::{Device, DeviceServeExt, PimConfig, ServeConfig};
use std::cell::RefCell;
use std::future::Future;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

const PATIENCE: Duration = Duration::from_secs(20);

/// Dropped by the thread-local destructor of the thread that ran the wake:
/// its disconnect tells the test that thread has exited.
struct ExitSignal(#[allow(dead_code)] Sender<()>);

thread_local! {
    static ON_EXIT: RefCell<Option<ExitSignal>> = const { RefCell::new(None) };
}

/// The client's waker. Its `wake` runs on the shard worker that completed
/// the request and parks there until the test has dropped every handle, so
/// the worker's own reference to the gateway is certainly the last one.
struct ParkUntilReleased {
    woken: Mutex<Sender<()>>,
    released: Mutex<Receiver<()>>,
    exited: Mutex<Option<Sender<()>>>,
}

impl Wake for ParkUntilReleased {
    fn wake(self: Arc<Self>) {
        if let Some(exited) = self.exited.lock().unwrap().take() {
            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(ExitSignal(exited)));
        }
        let _ = self.woken.lock().unwrap().send(());
        let _ = self.released.lock().unwrap().recv_timeout(PATIENCE);
    }
}

#[test]
fn last_gateway_handle_dropped_by_a_shard_worker_does_not_join_itself() {
    let panics = Arc::new(Mutex::new(Vec::<String>::new()));
    let seen = Arc::clone(&panics);
    std::panic::set_hook(Box::new(move |info| {
        seen.lock().unwrap().push(info.to_string());
    }));

    // A first poll can find the request already finished (nothing is woken
    // then); a fresh gateway compiles the routine again, which takes the
    // worker far longer than the poll, so this loops once in practice.
    for attempt in 0..10 {
        let cfg = PimConfig::small().with_crossbars(4);
        let gateway = Device::cluster(cfg.clone(), 2)
            .unwrap()
            .serve(ServeConfig::default());
        let client = gateway.session().unwrap();
        let mut request = Box::pin(client.submit(vec![Instruction::RType {
            op: RegOp::Div,
            dtype: DType::Float32,
            dst: 2,
            srcs: [0, 1, 0],
            target: ThreadRange::all(&cfg),
        }]));

        let (woken_tx, woken_rx) = channel();
        let (release_tx, release_rx) = channel();
        let (exited_tx, exited_rx) = channel::<()>();
        let waker = Waker::from(Arc::new(ParkUntilReleased {
            woken: Mutex::new(woken_tx),
            released: Mutex::new(release_rx),
            exited: Mutex::new(Some(exited_tx)),
        }));
        let mut cx = Context::from_waker(&waker);
        if request.as_mut().poll(&mut cx).is_ready() {
            continue;
        }
        woken_rx
            .recv_timeout(PATIENCE)
            .expect("the completing worker wakes the client");
        assert!(
            matches!(request.as_mut().poll(&mut cx), Poll::Ready(Ok(()))),
            "the request had completed when its waker ran"
        );
        // The final await is over: let go of everything while the worker
        // is still inside its completion wake, then let the worker go on.
        drop((request, client, gateway));
        release_tx.send(()).unwrap();
        assert_eq!(
            exited_rx.recv_timeout(PATIENCE),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
            "the worker that dropped the cluster exits"
        );
        // Copied out: a failing assert runs the hook, which takes the lock.
        let panics = panics.lock().unwrap().clone();
        assert!(
            panics.is_empty(),
            "attempt {attempt}: a thread panicked: {panics:?}"
        );
        return;
    }
    panic!("no attempt left the request pending after its first poll");
}
