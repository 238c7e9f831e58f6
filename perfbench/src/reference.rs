//! The host-speed reference: fixed, benchmark-owned work whose time
//! tracks the machine's speed, so host-clock metrics can be stated at a
//! nominal speed.
//!
//! On the shared VM this benchmark was calibrated on, memory-heavy code
//! slowed by up to 1.6× for minutes at a time while an ALU loop moved far
//! less. The simulator is allocation- and pointer-heavy, so the
//! reference mixes the same kinds of work: allocation churn through a
//! hash map, dependent loads over a table larger than a typical
//! last-level cache share, and byte copies through a `VecDeque`. It calls no repository
//! code, so a change to the program cannot move it. It runs in a process
//! of its own, so it neither inherits a round's heap nor adds to a
//! round's peak memory.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant; // lint:allow(R1) host-clock harness: the reference's wall time is the measurand

/// The reference's time on the calibration machine, seconds. Host-clock
/// metrics are scaled by `NOMINAL_S / measured`, so they read as on
/// that machine in a typical period.
pub const NOMINAL_S: f64 = 0.12;

/// Runs the reference work once and returns its wall time, seconds.
pub fn run() -> f64 {
    let start = Instant::now(); // lint:allow(R1) host-clock harness: the reference's wall time is the measurand
    let mut acc = 0u64;

    // Allocation churn: 64-byte values in and out of a hash map.
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..200_000u64 {
        map.insert(i.wrapping_mul(0x9e37_79b9), vec![i as u8; 64]);
    }
    for i in 0..200_000u64 {
        acc = acc.wrapping_add(
            map.remove(&i.wrapping_mul(0x9e37_79b9))
                .map_or(0, |v| v[7] as u64),
        );
    }

    // Dependent loads over 16 MiB: a single random cycle (Sattolo's
    // shuffle), so every step is a likely cache and TLB miss.
    let n = 4usize << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut j = 0usize;
    for _ in 0..500_000 {
        j = next[j] as usize;
        acc = acc.wrapping_add(j as u64);
    }

    // Byte copies through a queue, the socket buffers' shape.
    let chunk = vec![7u8; 32 << 10];
    let mut queue: VecDeque<u8> = VecDeque::new();
    for _ in 0..200 {
        queue.extend(chunk.iter());
        let out: Vec<u8> = queue.drain(..).collect();
        acc = acc.wrapping_add(u64::from(out[100]));
    }

    black_box(acc);
    start.elapsed().as_secs_f64()
}
