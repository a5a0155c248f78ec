//! Randomized-but-deterministic tests over the core invariants, spanning
//! crates. Each case is driven by the in-tree seeded generator
//! ([`simtime::XorShift64`]): the build needs no registry access and a
//! failure reproduces exactly from the printed seed. Case counts are kept
//! modest (the CI box is a single core); each property still explores a
//! meaningful slice of the input space.

use hetstream::dedup::lzss::{decode_block, encode_block, LzssConfig};
use hetstream::dedup::rabin::{chunk_starts, RabinParams};
use hetstream::dedup::{sha1, Sha1};
use hetstream::fastflow;
use hetstream::simtime::{Server, Sim, SimDuration, XorShift64};

fn small_rabin() -> RabinParams {
    RabinParams {
        window: 16,
        mask: (1 << 6) - 1,
        magic: 0x15,
        min_chunk: 32,
        max_chunk: 512,
    }
}

/// Run `cases` deterministic cases, each with its own seeded generator.
fn for_cases(cases: u64, mut f: impl FnMut(&mut XorShift64)) {
    for case in 0..cases {
        let mut rng = XorShift64::new(0xC0FFEE ^ case);
        f(&mut rng);
    }
}

#[test]
fn lzss_roundtrips_any_input() {
    for_cases(24, |rng| {
        let data = {
            let n = rng.range_usize(0, 4096);
            rng.bytes(n)
        };
        let cfg = LzssConfig {
            window: 256,
            min_coded: 3,
        };
        let enc = encode_block(&data, &cfg);
        let dec = decode_block(&enc, data.len(), &cfg).expect("roundtrip decodes");
        assert_eq!(dec, data);
    });
}

#[test]
fn lzss_roundtrips_repetitive_input() {
    for_cases(24, |rng| {
        let seed = {
            let n = rng.range_usize(1, 32);
            rng.bytes(n)
        };
        let reps = rng.range_usize(1, 200);
        let window_pow = rng.range_u32(6, 12);
        let data: Vec<u8> = seed
            .iter()
            .cycle()
            .take(seed.len() * reps)
            .copied()
            .collect();
        let cfg = LzssConfig {
            window: 1 << window_pow,
            min_coded: 3,
        };
        let enc = encode_block(&data, &cfg);
        let dec = decode_block(&enc, data.len(), &cfg).expect("roundtrip decodes");
        assert_eq!(dec, data);
    });
}

#[test]
fn lzss_never_expands_beyond_nine_eighths() {
    for_cases(24, |rng| {
        let data = {
            let n = rng.range_usize(0, 2048);
            rng.bytes(n)
        };
        let cfg = LzssConfig {
            window: 256,
            min_coded: 3,
        };
        let enc = encode_block(&data, &cfg);
        assert!(enc.len() <= data.len() * 9 / 8 + 2);
    });
}

/// Slice `data` into chunks given its `starts`.
fn chunks<'d>(data: &'d [u8], starts: &[usize]) -> Vec<&'d [u8]> {
    let ends = starts.iter().skip(1).copied().chain([data.len()]);
    starts.iter().zip(ends).map(|(&s, e)| &data[s..e]).collect()
}

#[test]
fn rabin_chunks_tile_the_input() {
    for_cases(24, |rng| {
        let data = {
            let n = rng.range_usize(0, 16384);
            rng.bytes(n)
        };
        let p = small_rabin();
        let starts = chunk_starts(&data, &p);
        assert_eq!(starts[0], 0);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        let glued: Vec<u8> = chunks(&data, &starts).concat();
        assert_eq!(glued, data);
    });
}

#[test]
fn rabin_respects_max_chunk() {
    for_cases(24, |rng| {
        let data = {
            let n = rng.range_usize(1024, 8192);
            rng.bytes(n)
        };
        let p = small_rabin();
        let starts = chunk_starts(&data, &p);
        for c in chunks(&data, &starts) {
            assert!(c.len() <= p.max_chunk);
        }
    });
}

#[test]
fn sha1_incremental_equals_one_shot() {
    for_cases(24, |rng| {
        let data = {
            let n = rng.range_usize(0, 2048);
            rng.bytes(n)
        };
        let cut = rng.range_usize(0, 2048).min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), sha1(&data));
    });
}

#[test]
fn ordered_farm_equals_sequential_map() {
    for_cases(12, |rng| {
        let input: Vec<u64> = (0..rng.range_usize(0, 500))
            .map(|_| rng.next_u64())
            .collect();
        let workers = rng.range_usize(1, 6);
        let expected: Vec<u64> = input.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        let got = fastflow::Pipeline::builder()
            .from_iter(input)
            .farm_ordered(workers, |_| {
                fastflow::node::map(|x: u64| x.wrapping_mul(31) ^ 7)
            })
            .collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn spar_region_equals_sequential_loop() {
    for_cases(12, |rng| {
        let input: Vec<u32> = (0..rng.range_usize(0, 300))
            .map(|_| rng.next_u32())
            .collect();
        let workers = rng.range_usize(1, 5);
        let expected: Vec<u32> = input.iter().map(|x| x.rotate_left(3)).collect();
        let got = hetstream::spar::ToStream::new()
            .source_iter(input)
            .stage(workers, |x: u32| x.rotate_left(3))
            .collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn dedup_sequential_roundtrips_arbitrary_input() {
    for_cases(10, |rng| {
        let data = {
            let n = rng.range_usize(0, 20000);
            rng.bytes(n)
        };
        let cfg = hetstream::dedup::DedupConfig {
            batch_size: 4096,
            rabin: small_rabin(),
            lzss: LzssConfig {
                window: 128,
                min_coded: 3,
            },
        };
        let archive = hetstream::dedup::run_sequential(&data, &cfg);
        assert_eq!(archive.decompress().unwrap(), data.clone());
        // Serialization roundtrip too.
        let parsed = hetstream::dedup::Archive::from_bytes(&archive.to_bytes()).unwrap();
        assert_eq!(parsed, archive);
    });
}

#[test]
fn des_single_server_time_is_sum_of_services() {
    for_cases(24, |rng| {
        let services: Vec<u64> = (0..rng.range_usize(1, 50))
            .map(|_| rng.range_u64(1, 1000))
            .collect();
        let mut sim = Sim::new();
        let srv = Server::new("s", 1);
        for &s in &services {
            srv.submit(&mut sim, SimDuration::from_nanos(s), |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), services.iter().sum::<u64>());
    });
}

#[test]
fn des_infinite_server_time_is_max_of_services() {
    for_cases(24, |rng| {
        let services: Vec<u64> = (0..rng.range_usize(1, 50))
            .map(|_| rng.range_u64(1, 1000))
            .collect();
        let mut sim = Sim::new();
        let srv = Server::new("s", 1000);
        for &s in &services {
            srv.submit(&mut sim, SimDuration::from_nanos(s), |_| {});
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), *services.iter().max().unwrap());
    });
}

#[test]
fn spsc_preserves_fifo_under_arbitrary_interleaving() {
    for_cases(24, |rng| {
        // true = push, false = pop; single-threaded model check.
        let ops: Vec<bool> = (0..rng.range_usize(1, 400))
            .map(|_| rng.chance(0.5))
            .collect();
        let (p, c) = fastflow::spsc::ring::<u64>(8);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for op in ops {
            if op {
                match p.try_push(next) {
                    Ok(()) => {
                        assert!(model.len() < 8);
                        model.push_back(next);
                    }
                    Err(_) => assert_eq!(model.len(), 8),
                }
                next += 1;
            } else {
                assert_eq!(c.try_pop(), model.pop_front());
            }
        }
    });
}

#[test]
fn corrupted_archives_never_panic() {
    for_cases(24, |rng| {
        // Compress, corrupt one bit anywhere in the serialized archive, and
        // require a clean outcome: parse error, decode error, or decoded
        // bytes — never a panic.
        let data = {
            let n = rng.range_usize(64, 4096);
            rng.bytes(n)
        };
        let cfg = hetstream::dedup::DedupConfig {
            batch_size: 1024,
            rabin: small_rabin(),
            lzss: LzssConfig {
                window: 128,
                min_coded: 3,
            },
        };
        let archive = hetstream::dedup::run_sequential(&data, &cfg);
        let mut bytes = archive.to_bytes();
        let idx = rng.range_usize(0, bytes.len());
        let flip_bit = rng.range_u32(0, 8);
        bytes[idx] ^= 1 << flip_bit;
        match hetstream::dedup::Archive::from_bytes(&bytes) {
            Err(_) => {}
            Ok(parsed) => {
                let _ = parsed.decompress(); // Ok or Err, both acceptable
            }
        }
    });
}

#[test]
fn mandel_color_is_within_bounds_and_monotone() {
    for_cases(200, |rng| {
        let niter = rng.range_u32(1, 10000);
        let k = rng.range_u32(0, 10000).min(niter);
        let c = hetstream::mandel::color(k, niter);
        let _ = c;
        if k == 0 {
            assert_eq!(hetstream::mandel::color(0, niter), 255);
        }
        assert_eq!(hetstream::mandel::color(niter, niter), 0);
    });
}
