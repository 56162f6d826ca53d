(* Tests for physical memory, page tables and address spaces. *)

open Td_misa
open Td_mem

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let test_layout_invariants () =
  check int_c "page size" 4096 Layout.page_size;
  check bool_c "stlb maps 16MB" true
    (Layout.stlb_entries * Layout.page_size = 16 * 1024 * 1024);
  check bool_c "window is 16MB" true
    (Layout.map_window_pages * Layout.page_size = 16 * 1024 * 1024);
  check bool_c "dom0 heap below driver code" true
    (Layout.dom0_heap_limit <= Layout.vm_driver_code_base);
  check bool_c "code offset constant" true
    (Layout.code_offset = Layout.hyp_driver_code_base - Layout.vm_driver_code_base);
  check bool_c "natives above hyp code" true
    (Layout.native_base > Layout.hyp_driver_code_base);
  check bool_c "dom0 range excludes hyp" false (Layout.in_dom0_range Layout.stlb_base);
  check bool_c "hyp range" true (Layout.in_hyp_range Layout.stlb_base)

let test_phys_alloc_free () =
  let m = Phys_mem.create ~frames:8 () in
  let f1 = Phys_mem.alloc_frame m in
  let f2 = Phys_mem.alloc_frame m in
  check bool_c "distinct" true (f1 <> f2);
  check int_c "allocated" 2 (Phys_mem.frames_allocated m);
  Phys_mem.free_frame m f1;
  check int_c "after free" 1 (Phys_mem.frames_allocated m);
  let f3 = Phys_mem.alloc_frame m in
  check int_c "frame reused" f1 f3

let test_phys_exhaustion () =
  let m = Phys_mem.create ~frames:3 () in
  ignore (Phys_mem.alloc_frame m);
  ignore (Phys_mem.alloc_frame m);
  check bool_c "exhausted" true
    (match Phys_mem.alloc_frame m with
    | exception Phys_mem.Out_of_frames { capacity = 3 } -> true
    | _ -> false)

let test_phys_growth () =
  (* the frame table grows on demand; every frame keeps its own buffer
     through the copies, and the pool still stops at its capacity *)
  let m = Phys_mem.create ~frames:3000 () in
  let frames = List.init 2999 (fun _ -> Phys_mem.alloc_frame m) in
  check (Alcotest.list int_c) "bump order" (List.init 2999 (fun i -> i + 1)) frames;
  List.iter (fun f -> Phys_mem.write m f 8 Width.W32 f) frames;
  check bool_c "contents survive growth" true
    (List.for_all (fun f -> Phys_mem.read m f 8 Width.W32 = f) frames);
  check bool_c "capacity" true
    (match Phys_mem.alloc_frame m with
    | exception Phys_mem.Out_of_frames { capacity = 3000 } -> true
    | _ -> false)

let test_phys_page_stability () =
  (* an untouched frame reads as zeros; once [page] hands out its
     buffer, every later access goes through that same buffer *)
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m and g = Phys_mem.alloc_frame m in
  check int_c "untouched reads zero" 0 (Phys_mem.read m f 12 Width.W32);
  let b = Phys_mem.page m f in
  check bool_c "same buffer" true (b == Phys_mem.page m f);
  Phys_mem.write m f 12 Width.W32 0xCAFE;
  check int_c "write lands in the handed-out buffer" 0xCAFE
    (Int32.to_int (Bytes.get_int32_le b 12));
  Bytes.set b 100 'x';
  check int_c "buffer writes are visible to reads" (Char.code 'x')
    (Phys_mem.read m f 100 Width.W8);
  Phys_mem.write m g 0 Width.W8 7;
  check bool_c "frames do not share" true (Phys_mem.page m g != b);
  check int_c "other frame untouched" 0 (Phys_mem.read m f 0 Width.W8);
  let h = Phys_mem.alloc_frame m in
  check int_c "fresh frame still zero" 0 (Phys_mem.read m h 12 Width.W32);
  check int_c "read_bytes of a fresh frame" 0
    (Int32.to_int (Bytes.get_int32_le (Phys_mem.read_bytes m h 8 8) 4))

let test_phys_rw_widths () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  Phys_mem.write m f 0 Width.W32 0xDEADBEEF;
  check int_c "w32" 0xDEADBEEF (Phys_mem.read m f 0 Width.W32);
  check int_c "b0 little-endian" 0xEF (Phys_mem.read m f 0 Width.W8);
  check int_c "b3" 0xDE (Phys_mem.read m f 3 Width.W8);
  check int_c "w16" 0xBEEF (Phys_mem.read m f 0 Width.W16);
  Phys_mem.write m f 100 Width.W8 0x7F;
  check int_c "w8" 0x7F (Phys_mem.read m f 100 Width.W8)

let test_phys_bounds () =
  let m = Phys_mem.create () in
  let f = Phys_mem.alloc_frame m in
  check bool_c "cross-frame read rejected" true
    (match Phys_mem.read m f 4094 Width.W32 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let space () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  Addr_space.heap_init s ~base:Layout.dom0_heap_base ~limit:Layout.dom0_heap_limit;
  s

let test_space_map_translate () =
  let s = space () in
  let va = Addr_space.heap_alloc s 100 in
  check int_c "page aligned" 0 (Layout.offset_of va);
  Addr_space.write s (va + 12) Width.W32 42;
  check int_c "read back" 42 (Addr_space.read s (va + 12) Width.W32);
  check bool_c "mapped" true (Addr_space.is_mapped s ~vpage:(Layout.page_of va))

let test_space_page_fault () =
  let s = space () in
  check bool_c "fault on unmapped" true
    (match Addr_space.read s 0xC7000000 Width.W32 with
    | exception Addr_space.Page_fault { addr = 0xC7000000; _ } -> true
    | _ -> false)

let test_space_straddle () =
  let s = space () in
  (* allocate two consecutive pages and write across the boundary *)
  let va = Addr_space.heap_alloc s (2 * Layout.page_size) in
  let boundary = va + Layout.page_size - 2 in
  Addr_space.write s boundary Width.W32 0x11223344;
  check int_c "straddling read" 0x11223344 (Addr_space.read s boundary Width.W32);
  check int_c "low half in page 1" 0x3344 (Addr_space.read s boundary Width.W16);
  check int_c "high half in page 2" 0x1122
    (Addr_space.read s (boundary + 2) Width.W16)

let test_space_blocks () =
  let s = space () in
  let va = Addr_space.heap_alloc s (2 * Layout.page_size) in
  let data = Bytes.init 6000 (fun i -> Char.chr (i mod 256)) in
  Addr_space.write_block s (va + 100) data;
  let back = Addr_space.read_block s (va + 100) 6000 in
  check bool_c "block roundtrip across pages" true (Bytes.equal data back)

let test_space_aliasing () =
  (* two spaces mapping the same frame see each other's writes: the
     single-data-instance property TwinDrivers depends on *)
  let phys = Phys_mem.create () in
  let a = Addr_space.create ~name:"a" phys in
  let b = Addr_space.create ~name:"b" phys in
  let f = Phys_mem.alloc_frame phys in
  Addr_space.map a ~vpage:0x10000 f;
  Addr_space.map b ~vpage:0x20000 f;
  Addr_space.write a 0x10000078 Width.W32 7;
  check int_c "alias visible" 7 (Addr_space.read b 0x20000078 Width.W32)

let test_device_pages () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"s" phys in
  let last_write = ref (-1, -1) in
  let dev =
    {
      Addr_space.dev_read = (fun off _ -> off * 2);
      dev_write = (fun off _ v -> last_write := (off, v));
    }
  in
  Addr_space.map_device s ~vpage:0x30000 dev;
  check int_c "device read" 16 (Addr_space.read s 0x30000008 Width.W32);
  Addr_space.write s 0x30000010 Width.W32 99;
  check bool_c "device write seen" true (!last_write = (16, 99))

let test_heap_alloc_distinct () =
  let s = space () in
  let a = Addr_space.heap_alloc s 10 in
  let b = Addr_space.heap_alloc s 10 in
  check bool_c "regions disjoint" true (b >= a + Layout.page_size)

(* --- the edges of the 32-bit space --- *)

let top_space () =
  let phys = Phys_mem.create () in
  let s = Addr_space.create ~name:"edge" phys in
  ignore (Addr_space.alloc_page s ~vpage:0xFFFFF);
  s

(* An access that runs past 0xFFFF_FFFF reaches vpage 2^20, which no
   table holds: it must fault like any unmapped page, naming the space,
   never escape as an array-bounds or [Invalid_argument] error. *)
let faults_at f =
  match f () with
  | exception Addr_space.Page_fault { space = "edge"; addr } -> Some addr
  | _ -> None

let test_space_top_edge () =
  let s = top_space () in
  Addr_space.write s 0xFFFF_FFFC Width.W32 0x0A0B0C0D;
  check int_c "last word" 0x0A0B0C0D (Addr_space.read s 0xFFFF_FFFC Width.W32);
  (* straddling reads assemble from the top byte down, writes from the
     bottom byte up *)
  check (Alcotest.option int_c) "read past the top" (Some 0x1_0000_0001)
    (faults_at (fun () -> Addr_space.read s 0xFFFF_FFFE Width.W32));
  check (Alcotest.option int_c) "write past the top" (Some 0x1_0000_0000)
    (faults_at (fun () -> Addr_space.write s 0xFFFF_FFFE Width.W32 1));
  check (Alcotest.option int_c) "read_block past the top" (Some 0x1_0000_0000)
    (faults_at (fun () -> Addr_space.read_block s 0xFFFF_FFF0 32));
  check (Alcotest.option int_c) "write_block past the top" (Some 0x1_0000_0000)
    (faults_at (fun () -> Addr_space.write_block s 0xFFFF_FFF0 (Bytes.make 32 'x')))

let test_space_out_of_range_vpages () =
  let s = top_space () in
  List.iter
    (fun vpage ->
      let name = Printf.sprintf "vpage %d" vpage in
      check bool_c (name ^ " unmapped") true
        (Option.is_none (Addr_space.lookup s ~vpage));
      check bool_c (name ^ " not is_mapped") false (Addr_space.is_mapped s ~vpage);
      check bool_c (name ^ " no frame") true
        (Option.is_none (Addr_space.frame_of_vpage s ~vpage));
      Addr_space.unmap s ~vpage;
      let rejects f =
        match f () with
        | exception Invalid_argument msg ->
            String.starts_with ~prefix:"Addr_space.map(edge)" msg
        | _ -> false
      in
      check bool_c (name ^ " map rejected") true
        (rejects (fun () -> Addr_space.map s ~vpage 1));
      check bool_c (name ^ " map_device rejected") true
        (rejects (fun () ->
             Addr_space.map_device s ~vpage
               { Addr_space.dev_read = (fun _ _ -> 0); dev_write = (fun _ _ _ -> ()) })))
    [ -1; -0x100000; 0x100000; max_int ];
  check int_c "still one page" 1 (Addr_space.mapped_pages s)

(* --- model-based: Addr_space and Phys_mem against a Map reference --- *)

module IM = Map.Make (Int)
module IS = Set.Make (Int)

(* The frame allocator's reference: a bump pointer from frame 1 and a
   LIFO free list, so the model predicts every frame number. *)
type phys_model = { next : int; free : int list; live : IS.t }

let phys_model0 = { next = 1; free = []; live = IS.empty }

let model_alloc ~capacity m =
  match m.free with
  | f :: rest -> (f, { m with free = rest; live = IS.add f m.live })
  | [] ->
      if m.next >= capacity then raise (Phys_mem.Out_of_frames { capacity });
      (m.next, { m with next = m.next + 1; live = IS.add m.next m.live })

let model_free m f =
  if IS.mem f m.live then { m with free = f :: m.free; live = IS.remove f m.live }
  else m

let leaf_edges = [ 0; 1; 1022; 1023; 1024; 1025; 2047; 2048; 0xFFBFF; 0xFFC00; 0xFFFFE; 0xFFFFF ]

let gen_vpage =
  QCheck.Gen.(
    frequency
      [ (3, oneofl leaf_edges); (1, int_range 0 0xFFFFF); (1, int_range 1015 1035) ])

type op =
  | Map of int  (* a fresh frame at the vpage *)
  | Remap of int  (* a fresh frame over the i-th live mapping *)
  | Alias of int * int  (* the vpage shares the i-th live mapping's frame *)
  | Map_device of int * int  (* vpage, device id *)
  | Unmap of int
  | Alloc_page of int
  | Heap_alloc of int
  | Release

let show_op = function
  | Map v -> Printf.sprintf "map %#x" v
  | Remap i -> Printf.sprintf "remap #%d" i
  | Alias (i, v) -> Printf.sprintf "alias #%d at %#x" i v
  | Map_device (v, d) -> Printf.sprintf "device %d at %#x" d v
  | Unmap v -> Printf.sprintf "unmap %#x" v
  | Alloc_page v -> Printf.sprintf "alloc_page %#x" v
  | Heap_alloc n -> Printf.sprintf "heap_alloc %d" n
  | Release -> "release"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Map v) gen_vpage);
        (2, map (fun i -> Remap i) nat);
        (2, map2 (fun i v -> Alias (i, v)) nat gen_vpage);
        (2, map2 (fun v d -> Map_device (v, d)) gen_vpage (int_range 0 2));
        (3, map (fun v -> Unmap v) gen_vpage);
        (2, map (fun v -> Alloc_page v) gen_vpage);
        (2, map (fun n -> Heap_alloc n) (int_range 1 (3 * Layout.page_size)));
        (1, return Release);
      ])

(* The heap straddles the first leaf boundary (vpages 1020..1035). *)
let heap_base = 1020 * Layout.page_size
let heap_limit = heap_base + (16 * Layout.page_size)
let model_capacity = 160

type m_mapping = M_frame of int | M_dev of int

type model = {
  pages : m_mapping IM.t;
  phys : phys_model;
  heap_next : int;
}

let space_model_prop =
  QCheck.Test.make ~name:"address space behaves like a map" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) gen_op)
       ~print:(fun ops -> String.concat "; " (List.map show_op ops)))
    (fun ops ->
      let phys = Phys_mem.create ~frames:model_capacity () in
      let s = Addr_space.create ~name:"m" phys in
      Addr_space.heap_init s ~base:heap_base ~limit:heap_limit;
      let devices =
        Array.init 3 (fun _ ->
            { Addr_space.dev_read = (fun _ _ -> 0); dev_write = (fun _ _ _ -> ()) })
      in
      let alloc m = model_alloc ~capacity:model_capacity m in
      let map_fresh m vpage =
        let f, phys = alloc m.phys in
        { m with pages = IM.add vpage (M_frame f) m.pages; phys }
      in
      let live_frames m =
        IM.bindings m.pages
        |> List.filter_map (function v, M_frame f -> Some (v, f) | _, M_dev _ -> None)
      in
      let nth_frame m i =
        match live_frames m with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let step m = function
        | Map vpage ->
            let m' = map_fresh m vpage in
            Addr_space.map s ~vpage (Phys_mem.alloc_frame phys);
            m'
        | Remap i -> (
            match nth_frame m i with
            | None -> m
            | Some (vpage, _) ->
                Addr_space.map s ~vpage (Phys_mem.alloc_frame phys);
                map_fresh m vpage)
        | Alias (i, vpage) -> (
            match nth_frame m i with
            | None -> m
            | Some (_, f) ->
                Addr_space.map s ~vpage f;
                { m with pages = IM.add vpage (M_frame f) m.pages })
        | Map_device (vpage, d) ->
            Addr_space.map_device s ~vpage devices.(d);
            { m with pages = IM.add vpage (M_dev d) m.pages }
        | Unmap vpage ->
            Addr_space.unmap s ~vpage;
            { m with pages = IM.remove vpage m.pages }
        | Alloc_page vpage ->
            let m' = map_fresh m vpage in
            let f = Addr_space.alloc_page s ~vpage in
            if IM.find vpage m'.pages <> M_frame f then
              QCheck.Test.fail_reportf "alloc_page %#x returned frame %d" vpage f;
            m'
        | Heap_alloc bytes ->
            let pages = max 1 ((bytes + Layout.page_size - 1) / Layout.page_size) in
            if m.heap_next + (pages * Layout.page_size) > heap_limit then begin
              (match Addr_space.heap_alloc s bytes with
              | exception Addr_space.Heap_exhausted { space = "m"; requested } ->
                  if requested <> bytes then QCheck.Test.fail_report "requested"
              | _ -> QCheck.Test.fail_report "heap_alloc past the limit");
              m
            end
            else begin
              let va = Addr_space.heap_alloc s bytes in
              if va <> m.heap_next then QCheck.Test.fail_reportf "heap_alloc at %#x" va;
              let m = ref { m with heap_next = m.heap_next + (pages * Layout.page_size) } in
              for i = 0 to pages - 1 do
                m := map_fresh !m (Layout.page_of va + i)
              done;
              !m
            end
        | Release ->
            Addr_space.release s;
            Addr_space.heap_init s ~base:heap_base ~limit:heap_limit;
            let phys =
              List.fold_left (fun p (_, f) -> model_free p f) m.phys (live_frames m)
            in
            { pages = IM.empty; phys; heap_next = heap_base }
      in
      let agree m =
        let probe vpage =
          let expect = IM.find_opt vpage m.pages in
          let ok =
            match (expect, Addr_space.lookup s ~vpage) with
            | None, None -> true
            | Some (M_frame f), Some (Addr_space.Frame f') -> f = f'
            | Some (M_dev d), Some (Addr_space.Device d') -> d' == devices.(d)
            | _ -> false
          in
          let frame = match expect with Some (M_frame f) -> Some f | _ -> None in
          if
            not
              (ok
              && Addr_space.is_mapped s ~vpage = Option.is_some expect
              && Addr_space.frame_of_vpage s ~vpage = frame)
          then QCheck.Test.fail_reportf "vpage %#x disagrees with the model" vpage
        in
        List.iter probe leaf_edges;
        List.iter probe [ -1; 0x100000 ];
        IM.iter (fun v _ -> probe v) m.pages;
        let walked = ref [] in
        Addr_space.iter_frames s (fun ~vpage f -> walked := (vpage, f) :: !walked);
        List.rev !walked = live_frames m
        && Addr_space.mapped_pages s = IM.cardinal m.pages
        && Phys_mem.frames_allocated phys = IS.cardinal m.phys.live
      in
      let model0 = { pages = IM.empty; phys = phys_model0; heap_next = heap_base } in
      let rec run m = function
        | [] -> true
        | op :: rest ->
            let m =
              match step m op with
              | m -> m
              | exception Phys_mem.Out_of_frames _ -> QCheck.assume_fail ()
            in
            agree m && run m rest
      in
      run model0 ops)

type phys_op = Alloc | Free_live of int | Free_any of int | Probe of int

let phys_model_prop =
  QCheck.Test.make ~name:"frame allocator behaves like a LIFO pool" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 60)
           (frequency
              [
                (4, return Alloc);
                (3, map (fun i -> Free_live i) nat);
                (1, map (fun f -> Free_any f) (int_range (-3) 20));
                (2, map (fun f -> Probe f) (int_range (-3) 20));
              ])))
    (fun ops ->
      let capacity = 12 in
      let phys = Phys_mem.create ~frames:capacity () in
      let bad f =
        match Phys_mem.page phys f with
        | exception Phys_mem.Bad_frame { frame } -> frame = f
        | _ -> false
      in
      List.fold_left
        (fun m op ->
          let m =
            match op with
            | Alloc -> (
                match model_alloc ~capacity m with
                | exception Phys_mem.Out_of_frames _ ->
                    (match Phys_mem.alloc_frame phys with
                    | exception Phys_mem.Out_of_frames { capacity = c } when c = capacity -> ()
                    | _ -> QCheck.Test.fail_report "alloc past capacity");
                    m
                | f, m' ->
                    let got = Phys_mem.alloc_frame phys in
                    if got <> f then QCheck.Test.fail_reportf "alloc gave %d, not %d" got f;
                    (* a reused frame comes back zeroed *)
                    if Phys_mem.read phys f 0 Width.W32 <> 0 then
                      QCheck.Test.fail_report "frame not zeroed";
                    Phys_mem.write phys f 0 Width.W32 0xFFFFFFFF;
                    m')
            | Free_live i ->
                if IS.is_empty m.live then m
                else begin
                  let l = IS.elements m.live in
                  let f = List.nth l (i mod List.length l) in
                  Phys_mem.free_frame phys f;
                  model_free m f
                end
            | Free_any f ->
                Phys_mem.free_frame phys f;
                model_free m f
            | Probe _ -> m
          in
          (match op with
          | Probe f | Free_any f ->
              if IS.mem f m.live = bad f then
                QCheck.Test.fail_reportf "frame %d: Bad_frame disagrees" f
          | Alloc | Free_live _ -> ());
          if Phys_mem.frames_allocated phys <> IS.cardinal m.live then
            QCheck.Test.fail_report "frames_allocated";
          m)
        phys_model0 ops
      |> fun m -> IS.for_all (fun f -> not (bad f)) m.live)

let suite =
  [
    Alcotest.test_case "layout invariants" `Quick test_layout_invariants;
    Alcotest.test_case "phys alloc/free" `Quick test_phys_alloc_free;
    Alcotest.test_case "phys exhaustion" `Quick test_phys_exhaustion;
    Alcotest.test_case "phys growth" `Quick test_phys_growth;
    Alcotest.test_case "phys page stability" `Quick test_phys_page_stability;
    Alcotest.test_case "phys rw widths" `Quick test_phys_rw_widths;
    Alcotest.test_case "phys bounds" `Quick test_phys_bounds;
    Alcotest.test_case "space map/translate" `Quick test_space_map_translate;
    Alcotest.test_case "space page fault" `Quick test_space_page_fault;
    Alcotest.test_case "space straddle" `Quick test_space_straddle;
    Alcotest.test_case "space blocks" `Quick test_space_blocks;
    Alcotest.test_case "space aliasing" `Quick test_space_aliasing;
    Alcotest.test_case "device pages" `Quick test_device_pages;
    Alcotest.test_case "heap alloc distinct" `Quick test_heap_alloc_distinct;
    Alcotest.test_case "space top edge faults" `Quick test_space_top_edge;
    Alcotest.test_case "space out-of-range vpages" `Quick
      test_space_out_of_range_vpages;
    QCheck_alcotest.to_alcotest space_model_prop;
    QCheck_alcotest.to_alcotest phys_model_prop;
  ]
