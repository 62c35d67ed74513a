//! Device reuse: after [`Device::reset`], a warmed device must be
//! byte-identical to a freshly constructed one — same buffer addresses,
//! same outputs, same statistics. The serve session's warm-device LRU
//! depends on exactly this invariant.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::mem::global_addr;
use omp_gpusim::{Device, DeviceConfig, LaunchDims, OwnedDevice, RtVal, StatsSnapshot};
use std::sync::Arc;

/// Uses a module-level global (init data) plus globalized captures, so
/// reset has real state to restore.
const SRC: &str = r#"
void scale_add(double* a, double f, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n / 4; b++) {
    double base = f * (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = base + (double)t;
    }
  }
}
"#;

fn run_once(dev: &mut Device) -> (u64, Vec<f64>, StatsSnapshot) {
    let buf = dev.alloc_f64(&[1.5; 64]).unwrap();
    let stats = dev
        .launch(
            "scale_add",
            &[RtVal::Ptr(buf), RtVal::F64(3.0), RtVal::I64(64)],
            LaunchDims {
                teams: Some(4),
                threads: Some(4),
            },
        )
        .unwrap();
    let out = dev.read_f64(buf, 64).unwrap();
    (buf, out, stats.snapshot())
}

#[test]
fn reset_restores_fresh_device_state() {
    let module = compile(SRC, &FrontendOptions::default()).unwrap();
    let mut fresh = Device::new(&module, DeviceConfig::default()).unwrap();
    let cold = run_once(&mut fresh);

    let mut reused = Device::new(&module, DeviceConfig::default()).unwrap();
    // Dirty the device: extra allocations shift the bump cursor, a
    // launch leaves high-water marks and global-memory contents behind.
    let _scratch = reused.alloc_f64(&[9.0; 128]).unwrap();
    let _ = run_once(&mut reused);
    reused.reset();
    let warm = run_once(&mut reused);

    assert_eq!(cold.0, warm.0, "buffer addresses must match after reset");
    assert_eq!(
        cold.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        warm.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "outputs must be bit-identical after reset"
    );
    assert_eq!(cold.2, warm.2, "stats snapshots must match after reset");
    assert_eq!(
        cold.2.to_json(),
        warm.2.to_json(),
        "serialized stats must be byte-identical after reset"
    );
}

#[test]
fn reset_applies_to_owned_devices_too() {
    let module = Arc::new(compile(SRC, &FrontendOptions::default()).unwrap());
    let mut owned = OwnedDevice::new(Arc::clone(&module), DeviceConfig::default()).unwrap();
    let first = owned.with(run_once);
    owned.with(|d| d.reset());
    let second = owned.with(run_once);
    assert_eq!(first.0, second.0);
    assert_eq!(first.2, second.2);
    assert_eq!(
        first.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        second.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// Stores four doubles at `a[off..off + 4]`: with a large `off` the
/// store lands in bounds but past every allocated buffer.
const POKE_SRC: &str = r#"
void poke(double* a, long off) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 4; i++) { a[off + i] = 7.0 + (double)i; }
}
"#;

#[test]
fn reset_clears_writes_outside_any_buffer() {
    let module = compile(POKE_SRC, &FrontendOptions::default()).unwrap();
    // A small device keeps the whole-image comparison cheap; the reset
    // contract does not depend on the size.
    let cfg = DeviceConfig {
        global_mem_bytes: 1 << 20,
        ..DeviceConfig::default()
    };
    let size = cfg.global_mem_bytes;
    let image = |dev: &Device| dev.read_bytes(global_addr(0), size as usize).unwrap();
    let fresh = image(&Device::new(&module, cfg.clone()).unwrap());

    let mut dev = Device::new(&module, cfg).unwrap();
    let buf = dev.alloc_f64(&[0.0; 4]).unwrap();
    // Element index of a slot 3/4 of the way up global memory, far
    // above the bump cursor.
    let off = ((size * 3 / 4) - (buf - global_addr(0))) / 8;
    dev.launch(
        "poke",
        &[RtVal::Ptr(buf), RtVal::I64(off as i64)],
        LaunchDims {
            teams: Some(1),
            threads: Some(4),
        },
    )
    .unwrap();
    assert_eq!(
        dev.read_f64(buf + off * 8, 4).unwrap(),
        [7.0, 8.0, 9.0, 10.0]
    );
    // `buf` is the last allocation, so its end is the bump cursor.
    assert!(off >= 4, "the store must land past the bump cursor");
    dev.reset();
    assert!(
        image(&dev) == fresh,
        "reset must clear kernel stores past the bump cursor"
    );

    // A host write to the very last byte of global memory.
    dev.write_bytes(global_addr(size - 1), &[0xAB]).unwrap();
    dev.reset();
    assert!(
        image(&dev) == fresh,
        "reset must clear host writes outside any buffer"
    );
}
