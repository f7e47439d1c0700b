//! E2 — the cost of *interpreting* manipulations through a DMI
//! (paper §6). Three tiers of the same create/update/read workload:
//! native structs (no interpretation), the Figure 10 façade
//! (`SlimPadDmi`: typed handles and the structural rules a model cannot
//! state, writing through the DMI generated from the Bundle-Scrap model
//! and reading through `PadReader`), and that generated `GenericDmi`
//! driven directly by connector name (model-validated interpretation —
//! the §4.4 future work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use slim_bench::{build_native_pad, build_pad, NativeScrap};
use std::hint::black_box;
use superimposed::metamodel::builtin;
use superimposed::slimstore::generic::DmiValue;
use superimposed::GenericDmi;

const N: usize = 200;

fn create_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_create");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::new("native", N), |b| {
        b.iter(|| black_box(build_native_pad(N)))
    });
    group.bench_function(BenchmarkId::new("figure10_facade", N), |b| {
        b.iter(|| black_box(build_pad(N)))
    });
    group.bench_function(BenchmarkId::new("generated_dmi", N), |b| {
        b.iter(|| {
            let mut dmi = GenericDmi::new(builtin::bundle_scrap());
            let bundle = dmi.create("Bundle").unwrap();
            dmi.set(bundle, "bundleName", DmiValue::Text("Patient".into())).unwrap();
            dmi.set(bundle, "bundlePos", DmiValue::Text("10,10".into())).unwrap();
            dmi.set(bundle, "bundleWidth", DmiValue::Text("800".into())).unwrap();
            dmi.set(bundle, "bundleHeight", DmiValue::Text("600".into())).unwrap();
            for i in 0..N {
                let scrap = dmi.create("Scrap").unwrap();
                dmi.set(scrap, "scrapName", DmiValue::Text(format!("lab value {i}"))).unwrap();
                dmi.set(scrap, "scrapPos", DmiValue::Text(format!("{},{}", i % 40, i / 40)))
                    .unwrap();
                let handle = dmi.create("MarkHandle").unwrap();
                dmi.set(handle, "markId", DmiValue::Text(format!("mark:{i}"))).unwrap();
                dmi.set(scrap, "scrapMark", DmiValue::Link(handle)).unwrap();
                dmi.set(bundle, "bundleContent", DmiValue::Link(scrap)).unwrap();
            }
            black_box(dmi)
        })
    });
    group.finish();
}

fn update_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_update_pos");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("native", |b| {
        let mut pad = build_native_pad(N);
        b.iter(|| {
            for (i, scrap) in pad.bundles[0].scraps.iter_mut().enumerate() {
                scrap.pos = (i as i64, i as i64);
            }
            black_box(&pad);
        })
    });
    group.bench_function("figure10_facade", |b| {
        let mut dmi = build_pad(N);
        let bundle = dmi.bundles()[0];
        let scraps = dmi.bundle(bundle).unwrap().scraps;
        b.iter(|| {
            for (i, scrap) in scraps.iter().enumerate() {
                dmi.update_scrap_pos(*scrap, (i as i64, i as i64)).unwrap();
            }
            black_box(&dmi);
        })
    });
    group.finish();
}

fn read_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_read_all");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("native", |b| {
        let pad = build_native_pad(N);
        b.iter(|| {
            let total: i64 = pad.bundles[0]
                .scraps
                .iter()
                .map(|s: &NativeScrap| s.pos.0 + s.name.len() as i64)
                .sum();
            black_box(total)
        })
    });
    group.bench_function("figure10_facade", |b| {
        let dmi = build_pad(N);
        let bundle = dmi.bundles()[0];
        let scraps = dmi.bundle(bundle).unwrap().scraps;
        b.iter(|| {
            let total: i64 = scraps
                .iter()
                .map(|s| {
                    let d = dmi.scrap(*s).unwrap();
                    d.pos.0 + d.name.len() as i64
                })
                .sum();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, create_workload, update_workload, read_workload);
criterion_main!(benches);
