//! The counting allocator registers a known allocation.

use perfbench::alloc::{self, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn known_allocation_registers() {
    alloc::self_test().expect("counting allocator installed");
    let before = alloc::allocs();
    let b = std::hint::black_box(Box::new([0u8; 4096]));
    assert!(alloc::allocs() > before);
    assert!(alloc::live_bytes() >= 4096);
    assert!(alloc::peak_bytes() >= alloc::live_bytes());
    drop(b);
}
