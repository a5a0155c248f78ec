//! Raw `gpusim` usage: drive the simulated Titan XPs through the CUDA-like
//! and OpenCL-like APIs directly, showing streams, events, pinned memory
//! and the modeled timeline (the machinery behind §IV-A's optimization
//! ladder).
//!
//! ```text
//! cargo run --release --example gpu_pipeline
//! ```

use std::sync::Arc;

// This example exercises the *advanced* surface on purpose: the raw CUDA
// and OpenCL façades below `hetstream::prelude` are where backend-specific
// machinery (streams, events, pinned memory) lives; portable stage code
// should use the `Offload` trait from the prelude instead.
use hetstream::gpusim::cuda::Cuda;
use hetstream::gpusim::opencl::{ClKernel, Context, Platform};
use hetstream::gpusim::{
    DeviceMemory, DeviceProps, DevicePtr, GpuSystem, KernelFn, LaunchDims, WorkMeter,
};

/// A toy kernel: out[i] = in[i] * scale + bias, one lane per element.
struct Saxpy {
    scale: f32,
    bias: f32,
    input: DevicePtr<f32>,
    output: DevicePtr<f32>,
}

impl KernelFn for Saxpy {
    fn name(&self) -> &'static str {
        "saxpy"
    }
    fn regs_per_thread(&self) -> u32 {
        16
    }
    fn cycles_per_unit(&self) -> f64 {
        2.0
    }
    fn run(&self, dims: &LaunchDims, mem: &DeviceMemory, meter: &mut WorkMeter) {
        let input = mem.borrow(self.input);
        let mut output = mem.borrow_mut(self.output);
        for lane in dims.lanes() {
            let i = lane as usize;
            if i < input.len() {
                output[i] = input[i] * self.scale + self.bias;
                meter.record(lane, 1);
            } else {
                meter.record(lane, 1);
            }
        }
    }
}

fn main() {
    let system = GpuSystem::new(2, DeviceProps::titan_xp());
    system.device(0).enable_trace();
    println!(
        "system: {} x '{}' ({} SMs, {} resident threads each)",
        system.device_count(),
        system.device(0).props().name,
        system.device(0).props().sm_count,
        system.device(0).props().max_threads_per_sm,
    );

    // --- CUDA-style: streams + pinned memory + events --------------------
    let cuda = Cuda::new(Arc::clone(&system));
    cuda.set_device(0);
    let n = 1 << 20;
    let input_buf = cuda.malloc::<f32>(n).expect("device memory");
    let output_buf = cuda.malloc::<f32>(n).expect("device memory");
    let mut pinned_in = cuda.host_alloc::<f32>(n);
    for (i, v) in pinned_in.as_mut_slice().iter_mut().enumerate() {
        *v = i as f32;
    }
    let stream = cuda.stream_create();
    cuda.memcpy_h2d_async(&input_buf, 0, &pinned_in, &stream);
    let kernel = Saxpy {
        scale: 2.0,
        bias: 1.0,
        input: input_buf.ptr(),
        output: output_buf.ptr(),
    };
    cuda.launch(&kernel, (n as u32).div_ceil(256), 256u32, &stream);
    let mut pinned_out = cuda.host_alloc::<f32>(n);
    cuda.memcpy_d2h_async(&mut pinned_out, &output_buf, 0, &stream);
    let done = cuda.event_record(&stream);
    cuda.event_synchronize(&done);
    assert_eq!(pinned_out[1000], 2001.0);
    let stats = system.device(0).stats();
    println!(
        "[cuda] saxpy over {n} floats: kernel+2 copies done at modeled t={} \
         (device busy: compute {}, h2d {}, d2h {})",
        done.time(),
        stats.compute_busy,
        stats.h2d_busy,
        stats.d2h_busy,
    );

    // --- OpenCL-style: context, queues, events, !Sync kernel objects ----
    let platform = Platform::new(Arc::clone(&system));
    let ids = platform.device_ids();
    let ctx = Context::create(&platform, &ids);
    let queue = ctx.create_queue(ids[1]); // second GPU
    let in_cl = ctx.create_buffer::<f32>(ids[1], n).expect("device memory");
    let out_cl = ctx.create_buffer::<f32>(ids[1], n).expect("device memory");
    let host: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let w = queue.enqueue_write_buffer(&in_cl, false, 0, &host, &[]);
    let mut kernel = ClKernel::create(Saxpy {
        scale: 0.5,
        bias: 0.0,
        input: in_cl.ptr(),
        output: out_cl.ptr(),
    });
    // clSetKernelArg-style mutation (requires &mut: not shareable).
    kernel.set_args(|k| k.bias = 3.0);
    let k_ev = queue.enqueue_nd_range(&kernel, n as u64, 256, &[w]);
    let mut result = vec![0f32; n];
    let r_ev = queue.enqueue_read_buffer(&out_cl, false, 0, &mut result, &[k_ev]);
    ctx.wait_for_events(&[r_ev]);
    assert_eq!(result[8], 7.0);
    println!(
        "[opencl] saxpy on device 1 finished at modeled t={} (host clock now {})",
        r_ev.time(),
        system.host_now(),
    );
    println!("\n[device 0 timeline — '#' busy, '.' idle]");
    print!(
        "{}",
        gpusim::render_timeline(&system.device(0).take_trace(), 64)
    );
    println!("results verified; both front ends drive the same simulated hardware");
}
