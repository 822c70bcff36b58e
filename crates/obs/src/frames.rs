//! The one per-thread stack of open phases.
//!
//! Every phase a thread opens is one **frame** on this thread's stack,
//! closed by the [`PhaseGuard`] that opened it. There are three ways in:
//! [`crate::Registry::phase`] (a timed phase), the registry-free
//! [`phase`] (hot paths that want attribution without a timer), and
//! [`child_span`] (a span in the request's tree and nothing else). Each
//! frame feeds the consumers that want it:
//!
//! * **timers** — registry frames record their wall-clock under the
//!   `outer/inner` path of the registry frames open around them
//!   (registry-free frames are not part of that path);
//! * **Chrome ring** — registry frames record one event into
//!   [`crate::trace::tracer`] when tracing is enabled;
//! * **profiler** — registry and [`phase`] frames publish their leaf
//!   name under the thread's published stack while
//!   [`crate::profile::profiler`] is armed;
//! * **request span tree** — while a request is attached to the thread
//!   ([`attach_request`]), every frame records one span, parented to
//!   the innermost open frame that has one (the request's root span
//!   otherwise).
//!
//! A frame no consumer wants (a registry-free frame while the profiler
//! is disarmed and no request is attached) is not pushed at all: its
//! guard is inert, and opening it costs one thread-local borrow and one
//! relaxed load.
//!
//! Guards close their own frame and any frame still open above it (a
//! guard leaked with `mem::forget` is closed by its parent). A guard
//! whose frame is already gone does nothing.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::TimerStats;
use crate::profile::{profiler, ThreadSlot, ROOT};
use crate::registry::Registry;
use crate::span::{SpanRecorder, TraceContext};

thread_local! {
    static THREAD: RefCell<Thread> = const { RefCell::new(Thread::new()) };
}

/// Everything one thread knows about its open phases.
struct Thread {
    /// Open frames, innermost last.
    frames: Vec<Frame>,
    /// Sequence number of the next frame (0 marks an inert guard).
    next_seq: u64,
    /// This thread's profiler slot, claimed on its first armed publish.
    profile: Option<ThreadSlot>,
    /// The span arena of the request being served on this thread.
    request: Option<SpanRecorder>,
}

/// One open phase.
struct Frame {
    /// Names the frame to its guard.
    seq: u64,
    /// Registry frames: the timer path, its timer, and the start.
    timed: Option<Timed>,
    /// Profiler node shown while this frame is innermost ([`ROOT`]:
    /// nothing published).
    node: u32,
    /// Whether this frame published `node` itself, so its close shows
    /// the parent's node again.
    published: bool,
    /// Index of this frame's span in the attached request.
    span: Option<usize>,
}

struct Timed {
    path: String,
    timer: Arc<TimerStats>,
    start: Instant,
}

/// What a frame is opened for.
enum Kind<'a> {
    /// [`Registry::phase`]: timer, Chrome ring, profiler, span.
    Registry(&'a Registry),
    /// [`phase`]: profiler and span.
    Phase,
    /// [`child_span`]: span only.
    Span,
}

impl Thread {
    const fn new() -> Thread {
        Thread {
            frames: Vec::new(),
            next_seq: 1,
            profile: None,
            request: None,
        }
    }

    /// Push a frame named `leaf`; returns its sequence number, or 0
    /// when no consumer wants it.
    fn open(&mut self, leaf: &str, kind: Kind<'_>, span_name: impl FnOnce() -> String) -> u64 {
        let parent_node = self.frames.last().map_or(ROOT, |f| f.node);
        let (node, published) = match kind {
            Kind::Span => (parent_node, false),
            Kind::Registry(_) | Kind::Phase if profiler().is_armed() => {
                match profiler().publish(&mut self.profile, parent_node, leaf) {
                    Some(node) => (node, true),
                    None => (parent_node, false),
                }
            }
            _ => (parent_node, false),
        };
        let span = match self.request.as_mut() {
            Some(request) => {
                let parent = self.frames.iter().rev().find_map(|f| f.span);
                request.begin(span_name(), parent)
            }
            None => None,
        };
        let timed = match kind {
            Kind::Registry(registry) => {
                let path = match self.frames.iter().rev().find_map(|f| f.timed.as_ref()) {
                    Some(outer) => format!("{}/{leaf}", outer.path),
                    None => leaf.to_string(),
                };
                let timer = registry.timer(&path);
                Some(Timed {
                    path,
                    timer,
                    start: Instant::now(),
                })
            }
            _ => None,
        };
        if timed.is_none() && !published && span.is_none() {
            return 0;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(Frame {
            seq,
            timed,
            node,
            published,
            span,
        });
        seq
    }

    /// Close frame `seq` and every frame still open above it.
    fn close(&mut self, seq: u64) {
        let Some(pos) = self.frames.iter().rposition(|f| f.seq == seq) else {
            return;
        };
        while self.frames.len() > pos {
            let frame = self.frames.pop().expect("frame above pos");
            if let Some(t) = frame.timed {
                let ns = t.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                t.timer.record_ns(ns);
                crate::trace::tracer().record_span(&t.path, t.start, ns);
            }
            if frame.published {
                let parent_node = self.frames.last().map_or(ROOT, |f| f.node);
                profiler().show(self.profile.as_ref(), parent_node);
            }
            if let (Some(span), Some(request)) = (frame.span, self.request.as_mut()) {
                request.end(span);
            }
        }
    }

    /// Take the attached request, if any; open frames keep no span.
    fn detach(&mut self) -> Option<SpanRecorder> {
        for frame in &mut self.frames {
            frame.span = None;
        }
        self.request.take()
    }
}

fn open(leaf: &str, kind: Kind<'_>, span_name: impl FnOnce() -> String) -> PhaseGuard {
    let seq = THREAD
        .try_with(|t| t.borrow_mut().open(leaf, kind, span_name))
        .unwrap_or(0);
    PhaseGuard {
        seq,
        _thread: PhantomData,
    }
}

/// Open a registry frame (see [`Registry::phase`]).
pub(crate) fn registry_phase(registry: &Registry, name: &str) -> PhaseGuard {
    open(name, Kind::Registry(registry), || name.to_string())
}

/// Open a phase named `name` without a registry timer: the profiler
/// and the attached request's span tree see it, the timers and the
/// Chrome ring do not. For hot paths (no name-lookup mutex, no
/// `format!`); inert while the profiler is disarmed and no request is
/// attached.
#[inline]
pub fn phase(name: &str) -> PhaseGuard {
    open(name, Kind::Phase, || name.to_string())
}

/// Open a span in the attached request's tree and nothing else (no
/// timer, no profiler frame). `name` runs only when a request is
/// attached, so an untraced caller formats nothing.
#[inline]
pub fn child_span(name: impl FnOnce() -> String) -> PhaseGuard {
    open("", Kind::Span, name)
}

/// Closes its frame when dropped: records the frame's timer and Chrome
/// event, restores the profiler's published stack, and ends the
/// frame's span. Created by [`Registry::phase`], [`phase`] and
/// [`child_span`]; tied to the thread that opened it.
#[must_use = "dropping the guard immediately closes the phase"]
pub struct PhaseGuard {
    /// The frame's sequence number; 0 for a frame that was not pushed.
    seq: u64,
    _thread: PhantomData<*const ()>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.seq != 0 {
            let _ = THREAD.try_with(|t| {
                if let Ok(mut t) = t.try_borrow_mut() {
                    t.close(self.seq);
                }
            });
        }
    }
}

/// Attach a fresh span arena to the calling thread: every frame opened
/// from now until the returned handle is finished or dropped records a
/// span in it. The serving pool attaches one per traced request, before
/// it reads the request.
pub fn attach_request() -> AttachedRequest {
    let _ = THREAD.try_with(|t| t.borrow_mut().request = Some(SpanRecorder::default()));
    AttachedRequest {
        _thread: PhantomData,
    }
}

/// The request attached to this thread by [`attach_request`]. Dropping
/// it detaches and discards the spans.
#[must_use = "dropping the handle detaches the request"]
pub struct AttachedRequest {
    _thread: PhantomData<*const ()>,
}

impl AttachedRequest {
    /// Set the request's trace identity once it is known (after the
    /// request line and headers are parsed); `remote_parent` is the
    /// inbound `traceparent`'s parent-id, 0 for a fresh trace.
    pub fn set_context(&self, ctx: TraceContext, remote_parent: u64) {
        let _ = THREAD.try_with(|t| {
            if let Some(request) = t.borrow_mut().request.as_mut() {
                request.set_context(ctx, remote_parent);
            }
        });
    }

    /// Detach the request and return its spans.
    pub fn finish(self) -> SpanRecorder {
        THREAD
            .try_with(|t| t.borrow_mut().detach())
            .ok()
            .flatten()
            .unwrap_or_default()
    }
}

impl Drop for AttachedRequest {
    fn drop(&mut self) {
        let _ = THREAD.try_with(|t| t.try_borrow_mut().map(|mut t| t.detach()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_free_frames_stay_out_of_timer_paths() {
        let r = Registry::new();
        {
            let _outer = r.phase("outer");
            let _free = phase("free");
            let _inner = r.phase("inner");
        }
        let report = r.snapshot();
        assert_eq!(report.timer("outer/inner").map(|t| t.count), Some(1));
        assert!(report.timer("outer/free/inner").is_none());
    }

    #[test]
    fn an_attached_request_records_every_frame_kind() {
        let r = Registry::new();
        let request = attach_request();
        {
            let _p = phase("evaluate");
            let _item = child_span(|| "batch[0] vertex".to_string());
            let _timed = r.phase("timed");
        }
        let spans = request.finish().spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["evaluate", "batch[0] vertex", "timed"]);
        assert_eq!(spans[1].parent_id, spans[0].span_id);
        assert_eq!(spans[2].parent_id, spans[1].span_id);
        assert_eq!(spans[0].start_ns, 0, "the first span starts the clock");
    }

    #[test]
    fn without_a_request_child_spans_format_nothing() {
        let _g = child_span(|| panic!("formatted without a request"));
    }

    #[test]
    fn a_parent_closes_a_leaked_child() {
        let r = Registry::new();
        let request = attach_request();
        let outer = r.phase("outer");
        std::mem::forget(r.phase("leaked"));
        drop(outer);
        // The stack is empty again: a new phase is top-level.
        r.time("after", || ());
        let report = r.snapshot();
        assert_eq!(report.timer("outer/leaked").map(|t| t.count), Some(1));
        assert_eq!(report.timer("after").map(|t| t.count), Some(1));
        let spans = request.finish().spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn finishing_detaches_the_request() {
        let request = attach_request();
        let open = phase("open");
        assert_eq!(request.finish().spans().len(), 1);
        let _later = child_span(|| panic!("no request is attached"));
        drop(open);
    }
}
