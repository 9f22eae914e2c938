//! Stackful coroutines: the ranks of a run share one OS thread.
//!
//! [`run`] hosts `n` rank bodies on the calling thread, each on its own
//! guard-paged 2 MiB stack.  A rank runs until it calls [`yield_to`] (from
//! `NetworkCore::park`, naming the rank the arbiter granted) or returns; the
//! run loop then resumes the rank last named, so a grant is two stack
//! switches: no futex, no second thread.  This is the only file in the linted
//! crates that may contain `unsafe` (`xtask lint`), and it rests on four
//! rules (docs/ARCHITECTURE.md §Handoff):
//!
//! 1. A rank body never unwinds out of [`entry`]: the `catch_unwind` is
//!    inside it, and a finished rank is never resumed.
//! 2. Nothing another rank can reach (a `RefCell` or thread-local borrow)
//!    is live across a switch: `park` releases its `SimState` borrow before
//!    it yields, and `treadmarks`' `STAGING` buffer is taken and handed back
//!    inside `Diff::create`, which never yields.
//! 3. A coroutine is created, resumed and finished on its hosting thread:
//!    [`Host`] is `!Send` and reachable only through a thread-local pointer.
//! 4. The entry frame is 16-byte aligned at the `call` ([`Rank::forge`]).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("cluster::coro is x86-64 Linux (System V) only: port `switch` and `trampoline`");

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::Mutex;

/// A rank's usable stack: `std`'s default for a spawned thread, so a rank
/// body may recurse as deep as it could on a thread of its own.
const STACK_BYTES: usize = 2 << 20;
/// One `PROT_NONE` page below it: an overflow is a SIGSEGV, not a stray write.
const GUARD_BYTES: usize = 4096;
/// Idle stacks (their base addresses) kept mapped for the next run, here or on
/// another thread: mapping, guarding, faulting in and unmapping eight stacks
/// is three quarters of what a run of eight idle ranks costs.  At most
/// [`POOL_STACKS`], so the process keeps at most 64 MiB of address space and
/// the pages the deepest ranks touched.
static POOL: Mutex<Vec<usize>> = Mutex::new(Vec::new());
const POOL_STACKS: usize = 32;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// Suspend the running context, leaving its stack pointer at `*save`, and
/// continue the suspended context whose stack pointer is `to`.
///
/// # Safety
///
/// `to` was stored by this function, or forged by [`Rank::forge`], for a
/// context of the calling thread that is suspended and not finished.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    // The callee-saved registers of the System V ABI.  MXCSR and the x87
    // control word are not saved: nothing in this workspace changes either.
    core::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp; mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp; ret",
    )
}

/// Where a new rank's first `ret` lands, the host popped into `r12`.
///
/// # Safety
///
/// Reached only through a frame forged by [`Rank::forge`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("mov rdi, r12", "call {entry}", "ud2", entry = sym entry)
}

/// Map `bytes` (whole pages) of stack above one guard page, for `rank`.
fn map_stack(rank: usize, bytes: usize) -> *mut u8 {
    let len = bytes.saturating_add(GUARD_BYTES);
    // SAFETY: a fresh private anonymous (0x22) no-reserve (0x4000) read-write
    // mapping where the kernel chooses touches nothing in use.
    let base = unsafe { mmap(ptr::null_mut(), len, 1 | 2, 0x4022, -1, 0) };
    let mapped = base as isize != -1;
    // SAFETY: the lowest page of the mapping just made, which nothing uses.
    if !mapped || unsafe { mprotect(base, GUARD_BYTES, 0) } != 0 {
        let (kib, e) = (bytes >> 10, std::io::Error::last_os_error());
        if mapped {
            // SAFETY: the mapping just made, handed to no one.
            unsafe { munmap(base, len) };
        }
        panic!("cannot map a {kib} KiB stack for rank {rank}: {e}");
    }
    base
}

/// One rank's coroutine: its stack, guard page first, and where it stopped.
struct Rank {
    base: *mut u8,
    /// Its stack pointer while it is suspended; null before and after.
    sp: Cell<*mut u8>,
}

impl Rank {
    /// Forge the frame `switch` first resumes: `r15 r14 r13 r12 rbx rbp`, the
    /// return address, two words of padding; `host` rides in `r12`.
    fn forge(&self, host: *const Host<'_>) {
        let mut frame = [0usize; 9];
        frame[3] = host as usize;
        frame[6] = trampoline as *const () as usize;
        // SAFETY: the top 72 bytes of a mapping of `STACK_BYTES` above its
        // guard, on which nothing runs.  The top is page-aligned, so after
        // the six pops and the `ret`, `rsp` is `top - 16`: aligned at the
        // trampoline's `call` as the ABI requires (rule 4).
        unsafe {
            let top = self.base.add(GUARD_BYTES + STACK_BYTES);
            let sp = top.cast::<[usize; 9]>().sub(1);
            sp.write(frame);
            self.sp.set(sp.cast());
        }
    }
}

impl Drop for Rank {
    /// `run` has returned or is unwinding: nothing runs on this stack again.
    fn drop(&mut self) {
        if let Ok(mut pool) = POOL.lock() {
            if pool.len() < POOL_STACKS {
                return pool.push(self.base as usize);
            }
        }
        // SAFETY: exactly a mapping `map_stack` made, and no longer in use.
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

/// One run loop and the ranks it hosts.  `!Send` by its raw pointers (rule 3).
struct Host<'a> {
    body: &'a dyn Fn(usize),
    ranks: Vec<Rank>,
    /// The run loop's stack pointer while a rank runs.
    loop_sp: Cell<*mut u8>,
    /// The rank running now (or last).
    running: Cell<usize>,
    /// The rank the last yield named.
    next: Cell<Option<usize>>,
    /// The run loop this one is nested in, if any.
    outer: *const Host<'static>,
}

thread_local! {
    /// The innermost run loop on this thread; null outside [`run`].
    static HOST: Cell<*const Host<'static>> = const { Cell::new(ptr::null()) };
}

impl Drop for Host<'_> {
    /// `run` returns or unwinds: `HOST` never outlives what it points to.
    fn drop(&mut self) {
        HOST.set(self.outer);
    }
}

impl Host<'_> {
    /// Run `rank` until it yields or finishes.
    fn resume(&self, rank: usize) {
        let to = self.ranks[rank].sp.get();
        assert!(
            !to.is_null(),
            "rank {rank} is not suspended: it cannot be resumed"
        );
        self.running.set(rank);
        // SAFETY: `to` was forged by `forge` or stored by `suspend`; its rank
        // is suspended, not finished (not null), on this thread (`!Send`).
        unsafe { switch(self.loop_sp.as_ptr(), to) };
    }

    /// Back to the run loop, from the running rank.
    fn suspend(&self) {
        let me = &self.ranks[self.running.get()];
        // SAFETY: on the running rank's stack, so the run loop is suspended
        // in `resume` and `loop_sp` is what its `switch` stored.  The caller
        // holds nothing another rank can reach (rule 2).
        unsafe { switch(me.sp.as_ptr(), self.loop_sp.get()) };
    }
}

/// Where a new rank starts, on its own stack.
extern "C" fn entry(host: *const Host<'_>) -> ! {
    // SAFETY: `forge` put in `r12` the address of the `Host` that `run` keeps
    // alive until its last `resume` has returned.
    let host = unsafe { &*host };
    let rank = host.running.get();
    // Rule 1: `body` is `run`'s `store`, one `catch_unwind`; an unwind would
    // find no frame above this one.
    (host.body)(rank);
    // Finished: never resumed again, so where this context stops is dropped.
    host.ranks[rank].sp.set(ptr::null_mut());
    let mut dead = ptr::null_mut();
    // SAFETY: as in `suspend`.
    unsafe { switch(&mut dead, host.loop_sp.get()) };
    unreachable!("`resume` refuses a finished rank")
}

/// The run loop hosting the calling rank.
fn with_host<R>(f: impl FnOnce(&Host<'_>) -> R) -> R {
    let host = HOST.get();
    assert!(
        !host.is_null(),
        "a simulated process interacted outside a cluster run loop"
    );
    // SAFETY: non-null only while the `run` that set it is on this thread's
    // stack and owns the `Host`; the reference does not leave `f`.
    f(unsafe { &*host })
}

/// Name the rank the run loop resumes next: at once if the caller then
/// suspends ([`yield_to`]), else when the caller, which has left the
/// simulation, returns from its body.  On `None` the loop decides.
pub(crate) fn leave_to(next: Option<usize>) {
    with_host(|host| host.next.set(next));
}

/// Suspend the calling rank, which holds nothing another rank can reach
/// (rule 2), until the run loop resumes it; the loop resumes `next` first.
pub(crate) fn yield_to(next: Option<usize>) {
    with_host(|host| {
        host.next.set(next);
        host.suspend();
    });
}

/// What a rank returned, or the payload it panicked with.
pub(crate) type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// Run `body(rank)` for every rank in `0..n` as coroutines on the calling
/// thread; the outcomes in rank order.
///
/// The run loop starts the ranks in rank order, each running to its first
/// yield, then resumes whichever rank the last yield named.  A yield that
/// names none once all have started means the simulation is over or torn
/// down: every unfinished rank is resumed exactly once, to find the abort
/// and unwind through its destructors.
///
/// # Panics
///
/// If a stack cannot be mapped (one line: rank, size, OS error), or a rank
/// suspends again during teardown.
pub(crate) fn run<T>(n: usize, body: impl Fn(usize) -> T) -> Vec<Outcome<T>> {
    let outcomes: Vec<Cell<Option<Outcome<T>>>> = (0..n).map(|_| Cell::new(None)).collect();
    let store = |rank: usize| {
        outcomes[rank].set(Some(catch_unwind(AssertUnwindSafe(|| body(rank)))));
    };
    // Every stack is there before any rank starts: a failed map unwinds with
    // nothing running.
    let stack = |rank| {
        let idle = POOL.lock().expect("nothing panics holding the pool").pop();
        let base = idle.map_or_else(|| map_stack(rank, STACK_BYTES), |base| base as *mut u8);
        Rank {
            base,
            sp: Cell::new(ptr::null_mut()),
        }
    };
    let host = &Host {
        body: &store,
        ranks: (0..n).map(stack).collect(),
        loop_sp: Cell::new(ptr::null_mut()),
        running: Cell::new(0),
        next: Cell::new(None),
        outer: HOST.get(),
    };
    HOST.set(ptr::from_ref(host).cast());
    let mut unstarted = host.ranks.iter().enumerate();
    let mut start = || {
        let (rank, new) = unstarted.next()?;
        new.forge(host);
        Some(rank)
    };
    while let Some(rank) = host.next.take().or_else(&mut start) {
        host.resume(rank);
    }
    for (rank, suspended) in host.ranks.iter().enumerate() {
        if !suspended.sp.get().is_null() {
            host.resume(rank);
            assert!(
                suspended.sp.get().is_null(),
                "rank {rank} suspended again during teardown"
            );
        }
    }
    let finished = outcomes.iter().map(Cell::take);
    finished.map(|o| o.expect("every rank finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// The text of a `panic!` payload.
    fn text(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("a panic! payload")
    }

    #[test]
    fn ranks_start_in_rank_order_and_the_named_rank_runs_next() {
        let log = RefCell::new(Vec::new());
        let results = run(3, |rank| {
            log.borrow_mut().push((rank, "started"));
            // The last to start names rank 0; each rank then names the next.
            yield_to((rank == 2).then_some(0));
            log.borrow_mut().push((rank, "resumed"));
            leave_to((rank < 2).then_some(rank + 1));
            rank * 10
        });
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, [0, 10, 20]);
        assert_eq!(
            log.into_inner(),
            [
                (0, "started"),
                (1, "started"),
                (2, "started"),
                (0, "resumed"),
                (1, "resumed"),
                (2, "resumed"),
            ]
        );
    }

    #[test]
    fn a_panicking_body_stops_in_its_entry_and_its_peers_finish() {
        // Rule 1.  Rank 1 panics while rank 0 is suspended; teardown then
        // resumes rank 0, which finishes.
        let results = run(2, |rank| {
            if rank == 1 {
                panic!("rank 1 panics");
            }
            yield_to(None);
            "rank 0 returns"
        });
        assert_eq!(*results[0].as_ref().unwrap(), "rank 0 returns");
        assert_eq!(text(&**results[1].as_ref().unwrap_err()), "rank 1 panics");
    }

    #[test]
    fn borrows_released_before_a_yield_never_meet() {
        // Rule 2, the way `park` follows it: borrow, release, yield.
        let shared = RefCell::new(0u32);
        run(2, |rank| {
            yield_to((rank == 1).then_some(0));
            for _ in 0..100 {
                *shared.borrow_mut() += 1;
                yield_to(Some(1 - rank));
            }
            leave_to((rank == 0).then_some(1));
        });
        assert_eq!(shared.into_inner(), 200);
    }

    #[test]
    fn the_host_cannot_leave_its_thread() {
        // Rule 3.  `probe` resolves only while exactly one of the two impls
        // applies, that is, while `Host` is not `Send`.
        trait AmbiguousIfSend<A> {
            fn probe() {}
        }
        impl<T: ?Sized> AmbiguousIfSend<()> for T {}
        impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
        <Host<'static> as AmbiguousIfSend<_>>::probe();
    }

    #[test]
    fn the_entry_frame_is_aligned_for_sse() {
        // Rule 4.  A 16-aligned local is placed relative to the frame the
        // trampoline's `call` made; float formatting spills with `movaps`.
        #[repr(align(16))]
        struct Aligned([f64; 2]);
        let results = run(2, |rank| {
            let local = std::hint::black_box(Aligned([rank as f64 + 0.5, 2.0]));
            yield_to(None);
            (
                std::ptr::from_ref(&local) as usize % 16,
                format!("{:.3}", local.0[0] * local.0[1]),
            )
        });
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            results,
            [(0, "1.000".to_string()), (0, "3.000".to_string())]
        );
    }

    #[test]
    fn a_run_nests_on_one_thread_and_puts_the_outer_host_back() {
        let results = run(2, |outer| {
            yield_to((outer == 1).then_some(0));
            let inner = run(3, |inner| {
                yield_to(None);
                inner + 1
            });
            // Still a rank of the outer run: this yield reaches its loop.
            yield_to(Some(1 - outer));
            leave_to((outer == 0).then_some(1));
            outer * 100 + inner.into_iter().map(Result::unwrap).sum::<usize>()
        });
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, [6, 106]);
        assert!(HOST.get().is_null());
    }

    #[test]
    fn a_yield_outside_a_run_loop_is_a_located_panic() {
        let payload = catch_unwind(|| yield_to(None)).unwrap_err();
        assert!(text(&*payload).contains("outside a cluster run loop"));
    }

    #[test]
    fn a_stack_that_cannot_be_mapped_names_its_rank_size_and_errno() {
        // 128 TiB is the whole user address space.
        let payload = catch_unwind(|| map_stack(3, 1 << 47)).unwrap_err();
        let line = text(&*payload);
        assert!(
            line.starts_with("cannot map a 137438953472 KiB stack for rank 3: ")
                && line.ends_with("(os error 12)"),
            "{line}"
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn the_pool_keeps_a_bounded_number_of_idle_stacks() {
        let ranks = run(POOL_STACKS + 8, |rank| rank);
        assert_eq!(ranks.len(), POOL_STACKS + 8);
        assert!(POOL.lock().unwrap().len() <= POOL_STACKS);
    }

    #[test]
    fn a_rank_that_suspends_again_during_teardown_is_reported() {
        let payload = catch_unwind(|| {
            run(1, |_| {
                yield_to(None);
                yield_to(None);
            })
        })
        .unwrap_err();
        assert_eq!(text(&*payload), "rank 0 suspended again during teardown");
    }
}
