//! The `to_stream!` macro: SPar's annotations as a declarative macro.

/// Annotate a stream region: SPar's C++11 attribute annotations as a Rust
/// declarative macro.
///
/// SPar's compiler parses `[[spar::ToStream]]`, `[[spar::Stage]]`,
/// `[[spar::Input(...)]]`, `[[spar::Output(...)]]` and
/// `[[spar::Replicate(n)]]` annotations and rewrites the code into FastFlow
/// calls. Here the macro expansion *is* that source-to-source
/// transformation: the grammar mirrors the annotations and the expansion
/// targets [`ToStream`](crate::ToStream)/[`StreamStage`](crate::StreamStage),
/// which generate the `fastflow` runtime graph.
///
/// `input(...)`/`output(...)` lists are accepted for annotation fidelity
/// and self-documentation, but carry no semantics: in Rust the data flowing
/// between stages is exactly the closure argument/return types, checked by
/// the compiler instead of declared by the programmer (a productivity bug
/// class SPar's C++ front end has to diagnose itself).
///
/// # Grammar
///
/// ```text
/// to_stream! {
///     [ordered;] [unordered;] [config(EXPR);]
///     source [ (output(IDENTS)) ] |em| BLOCK ;
///     stage(ATTRS) |arg: InTy| -> OutTy BLOCK ;   // zero or more
///     last_stage [ (ATTRS) ] |arg: InTy| BLOCK ;
/// }
/// // ATTRS ::= attr [, attr]*      (any order)
/// // attr  ::= input(IDENTS) | output(IDENTS) | replicate = EXPR
/// ```
///
/// # Example — the paper's Listing 1, in Rust
///
/// ```
/// let dim = 16usize;
/// let workers = 3usize;
/// let mut shown = 0usize;
/// spar::to_stream! {
///     ordered;
///     source(output(i)) |em| {
///         for i in 0..dim {
///             em.send(i);
///         }
///     };
///     stage(input(i, dim), output(img), replicate = workers)
///     |i: usize| -> (usize, Vec<u8>) {
///         let img = (0..dim).map(|j| ((i * j) % 256) as u8).collect();
///         (i, img)
///     };
///     last_stage(input(img)) |line: (usize, Vec<u8>)| {
///         assert_eq!(line.0, shown);
///         shown += 1;
///     };
/// }
/// assert_eq!(shown, dim);
/// ```
#[macro_export]
macro_rules! to_stream {
    // --- region-level attributes ---
    ( ordered; $($rest:tt)* ) => {
        $crate::to_stream!(@src [$crate::ToStream::new().ordered(true)] $($rest)*)
    };
    ( unordered; $($rest:tt)* ) => {
        $crate::to_stream!(@src [$crate::ToStream::new().ordered(false)] $($rest)*)
    };
    ( config($cfg:expr); $($rest:tt)* ) => {
        $crate::to_stream!(@src [$crate::ToStream::annotate($cfg)] $($rest)*)
    };
    ( source $($rest:tt)* ) => {
        $crate::to_stream!(@src [$crate::ToStream::new()] source $($rest)*)
    };

    // --- source: with or without an output(...) annotation ---
    (@src [$b:expr] source( output($($o:tt)*) ) |$em:ident| $body:block; $($rest:tt)*) => {
        $crate::to_stream!(@stages [($b).source(move |$em: &mut $crate::Emitter<'_, _>| $body)] $($rest)*)
    };
    (@src [$b:expr] source |$em:ident| $body:block; $($rest:tt)*) => {
        $crate::to_stream!(@stages [($b).source(move |$em: &mut $crate::Emitter<'_, _>| $body)] $($rest)*)
    };

    // --- middle stages ---
    (@stages [$p:expr] stage( $($attrs:tt)* ) |$arg:ident : $inty:ty| -> $outty:ty $body:block; $($rest:tt)*) => {
        $crate::to_stream!(@stages
            [$crate::__spar_stage!([$p] [1usize] [move |$arg: $inty| -> $outty { $body }] $($attrs)*)]
            $($rest)*)
    };

    // --- last stage: with or without attributes ---
    (@stages [$p:expr] last_stage( $($attrs:tt)* ) |$arg:ident : $inty:ty| $body:block $(;)?) => {
        ($p).last_stage(|$arg: $inty| $body)
    };
    (@stages [$p:expr] last_stage |$arg:ident : $inty:ty| $body:block $(;)?) => {
        ($p).last_stage(|$arg: $inty| $body)
    };
}

/// Internal: fold `stage(...)` attributes, extracting `replicate = n` and
/// discarding `input(...)`/`output(...)` documentation attributes.
#[doc(hidden)]
#[macro_export]
macro_rules! __spar_stage {
    // all attributes consumed -> apply
    ([$p:expr] [$rep:expr] [$f:expr]) => {
        ($p).stage($rep, $f)
    };
    ([$p:expr] [$rep:expr] [$f:expr] replicate = $n:expr) => {
        ($p).stage($n, $f)
    };
    ([$p:expr] [$rep:expr] [$f:expr] replicate = $n:expr, $($rest:tt)*) => {
        $crate::__spar_stage!([$p] [$n] [$f] $($rest)*)
    };
    ([$p:expr] [$rep:expr] [$f:expr] input($($i:tt)*)) => {
        $crate::__spar_stage!([$p] [$rep] [$f])
    };
    ([$p:expr] [$rep:expr] [$f:expr] input($($i:tt)*), $($rest:tt)*) => {
        $crate::__spar_stage!([$p] [$rep] [$f] $($rest)*)
    };
    ([$p:expr] [$rep:expr] [$f:expr] output($($o:tt)*)) => {
        $crate::__spar_stage!([$p] [$rep] [$f])
    };
    ([$p:expr] [$rep:expr] [$f:expr] output($($o:tt)*), $($rest:tt)*) => {
        $crate::__spar_stage!([$p] [$rep] [$f] $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macro_sequential_region() {
        let mut out = Vec::new();
        crate::to_stream! {
            source |em| {
                for i in 0..10u64 {
                    em.send(i);
                }
            };
            stage(input(i)) |x: u64| -> u64 { x * 2 };
            last_stage |x: u64| { out.push(x); };
        }
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn macro_replicated_ordered() {
        let workers = 4usize;
        let mut out = Vec::new();
        crate::to_stream! {
            ordered;
            source(output(i)) |em| {
                for i in 0..200u64 {
                    em.send(i);
                }
            };
            stage(input(i), output(y), replicate = workers) |x: u64| -> u64 { x + 7 };
            last_stage(input(y)) |x: u64| { out.push(x); };
        }
        assert_eq!(out, (0..200).map(|x| x + 7).collect::<Vec<u64>>());
    }

    #[test]
    fn macro_unordered_region() {
        let mut out = Vec::new();
        crate::to_stream! {
            unordered;
            source |em| {
                for i in 0..100u32 {
                    em.send(i);
                }
            };
            stage(replicate = 3) |x: u32| -> u32 { x ^ 0xFF };
            last_stage |x: u32| { out.push(x); };
        }
        out.sort_unstable();
        let mut expected: Vec<u32> = (0..100).map(|x| x ^ 0xFF).collect();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn macro_two_middle_stages() {
        let mut out = Vec::new();
        crate::to_stream! {
            ordered;
            source |em| {
                for i in 1..=20u64 {
                    em.send(i);
                }
            };
            stage(replicate = 2) |x: u64| -> u64 { x * x };
            stage(input(sq)) |x: u64| -> u64 { x + 1 };
            last_stage |x: u64| { out.push(x); };
        }
        assert_eq!(out, (1..=20).map(|x| x * x + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn macro_with_explicit_config() {
        let cfg = crate::SparConfig {
            queue_capacity: 8,
            ordered: true,
            ..Default::default()
        };
        let mut n = 0u32;
        crate::to_stream! {
            config(cfg);
            source |em| {
                for i in 0..50u32 {
                    em.send(i);
                }
            };
            stage(replicate = 2) |x: u32| -> u32 { x };
            last_stage |_x: u32| { n += 1; };
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn macro_replicate_attr_in_any_position() {
        let mut out = Vec::new();
        crate::to_stream! {
            ordered;
            source |em| {
                for i in 0..30u64 {
                    em.send(i);
                }
            };
            stage(replicate = 3, input(x), output(y)) |x: u64| -> u64 { x * 10 };
            last_stage |x: u64| { out.push(x); };
        }
        assert_eq!(out, (0..30).map(|x| x * 10).collect::<Vec<u64>>());
    }
}
