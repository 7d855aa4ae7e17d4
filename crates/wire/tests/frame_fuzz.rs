//! Seeded fuzz of the two frame readers: arbitrary bytes, and valid
//! traced and untraced frames with a few bytes overwritten, inserted or
//! cut off. Every input must give a frame, "not yet" or a typed decode
//! error, never a panic; the blocking and the buffered reader must agree
//! on it; and an announced length over `MAX_FRAME_LEN` must be rejected
//! before anything is allocated for it.
//!
//! A counting allocator measures the largest single allocation the
//! readers make on each input.

use iris_wire::frame::{
    parse_frame, read_frame_traced, write_frame_traced, FrameEvent, MAX_FRAME_LEN, TRACE_FLAG,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

/// The system allocator, noting the largest request a thread makes
/// while it is armed (per thread, so parallel tests do not mix).
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

impl Counting {
    fn note(size: usize) {
        if ARMED.get() {
            LARGEST.set(LARGEST.get().max(size));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the guarantees a caller gives this allocator are exactly the ones
// `System` needs. The bookkeeping in `note` only reads and writes
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Room for an error message: the most a reader may allocate beyond
/// the frame it was announced.
const SLACK: usize = 256;

/// Run both readers on `input`, check they agree, and check what they
/// allocated against the announced length.
fn check(input: &[u8]) {
    let mut cursor = Cursor::new(input);
    LARGEST.set(0);
    ARMED.set(true);
    let read = read_frame_traced(&mut cursor);
    let parsed = parse_frame(input);
    ARMED.set(false);
    let largest = LARGEST.get();
    let consumed = cursor.position() as usize;

    let announced = input
        .get(..4)
        .map(|p| (u32::from_be_bytes(p.try_into().expect("4 bytes")) & !TRACE_FLAG) as usize);
    match (&read, &parsed) {
        (Ok((FrameEvent::Frame(payload), trace_id)), Ok(Some(frame))) => {
            assert_eq!(payload, &frame.payload, "payloads differ on {input:?}");
            assert_eq!(*trace_id, frame.trace_id, "trace ids differ on {input:?}");
            assert_eq!(consumed, frame.consumed, "lengths differ on {input:?}");
        }
        (Ok((FrameEvent::Eof, None)), Ok(None)) => assert!(input.is_empty()),
        // A frame cut short: the stream reader sees the end, the buffer
        // parser waits for more bytes.
        (Err(e), Ok(None)) => {
            assert_eq!(e.code(), "decode", "{e}");
            assert!(!input.is_empty());
        }
        (Err(a), Err(b)) => {
            assert_eq!((a.code(), b.code()), ("decode", "decode"), "{a} / {b}");
            assert!(announced.is_some_and(|len| len > MAX_FRAME_LEN), "{a}");
            assert_eq!(consumed, 4, "read past a rejected prefix on {input:?}");
        }
        _ => panic!("readers disagree on {input:?}: {read:?} vs {parsed:?}"),
    }
    let bound = match announced {
        Some(len) if len <= MAX_FRAME_LEN => len + SLACK,
        _ => SLACK,
    };
    assert!(
        largest <= bound,
        "allocated {largest} bytes for a frame announcing {announced:?}"
    );
}

/// A valid frame with a random payload, traced or not.
fn valid_frame(rng: &mut StdRng) -> Vec<u8> {
    let payload: Vec<u8> = (0..rng.random_range(0usize..64))
        .map(|_| rng.random_range(0u8..=255))
        .collect();
    let trace_id = rng.random::<bool>().then(|| rng.random::<u64>());
    let mut out = Vec::new();
    write_frame_traced(&mut out, &payload, trace_id).expect("in-memory write");
    out
}

/// One to three edits: overwrite, insert or truncate at a random spot.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.random_range(1usize..=3) {
        let at = rng.random_range(0..=bytes.len());
        match rng.random_range(0u8..3) {
            0 if at < bytes.len() => bytes[at] = rng.random_range(0u8..=255),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, rng.random_range(0u8..=255)),
        }
    }
    bytes
}

#[test]
fn arbitrary_bytes_decode_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0x1415);
    for _ in 0..4000 {
        let noise: Vec<u8> = (0..rng.random_range(0usize..=256))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
        check(&noise);
    }
}

#[test]
fn mutated_frames_decode_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0x9265);
    for _ in 0..4000 {
        let frame = valid_frame(&mut rng);
        check(&frame);
        let mutated = mutate(&mut rng, frame);
        check(&mutated);
    }
}

#[test]
fn lengths_around_the_cap_are_bounded() {
    for flag in [0, TRACE_FLAG] {
        for len in (MAX_FRAME_LEN - 2..=MAX_FRAME_LEN + 2).chain([u32::MAX as usize >> 1]) {
            let mut input = (flag | len as u32).to_be_bytes().to_vec();
            input.extend_from_slice(&[7; 16]);
            check(&input);
        }
    }
}
