(* Dead relative link check over the top-level docs and docs/*.md: every
   markdown link [text](target) whose target is not an http(s) or mailto
   URL must name an existing file or directory, resolved against the
   linking document's directory; a #fragment or ?query is ignored.

   Usage: doc_links.exe <repository root>. Prints one [::error::] line
   per dead link and exits 1 if there is any. *)

let docs root =
  [ "README.md"; "ARCHITECTURE.md"; "EXPERIMENTS.md"; "ROADMAP.md" ]
  @ (Sys.readdir (Filename.concat root "docs")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.sort compare
    |> List.map (Filename.concat "docs"))

let read file = In_channel.with_open_bin file In_channel.input_all

(* The target of every [text](target) link, left to right. The text runs
   to the first ']', which must be followed by '('; the target is a
   non-empty run of characters other than ')', '#' and '?', and the link
   ends at the next ')'. A start that does not match is retried one
   character later. *)
let targets s =
  let n = String.length s in
  let find c from = String.index_from_opt s from c in
  let rec scan i acc =
    match find '[' i with
    | None -> List.rev acc
    | Some i -> (
        let fail () = scan (i + 1) acc in
        match find ']' (i + 1) with
        | Some j when j + 1 < n && s.[j + 1] = '(' ->
            let t = j + 2 in
            let e = ref t in
            while !e < n && not (String.contains ")#?" s.[!e]) do
              incr e
            done;
            if !e = t || !e = n then fail ()
            else
              let close = if s.[!e] = ')' then Some !e else find ')' !e in
              (match close with
              | Some c -> scan (c + 1) (String.sub s t (!e - t) :: acc)
              | None -> fail ())
        | _ -> fail ())
  in
  scan 0 []

let external_ t =
  List.exists
    (fun p -> String.starts_with ~prefix:p t)
    [ "http://"; "https://"; "mailto:" ]

let () =
  let root = Sys.argv.(1) in
  let docs = docs root in
  let dead =
    List.concat_map
      (fun doc ->
        let base = Filename.concat root (Filename.dirname doc) in
        targets (read (Filename.concat root doc))
        |> List.filter (fun t ->
               (not (external_ t))
               && not
                    (Sys.file_exists
                       (if Filename.is_relative t then Filename.concat base t
                        else t)))
        |> List.map (Printf.sprintf "%s: dead relative link -> %s" doc))
      docs
  in
  List.iter (Printf.printf "::error::%s\n") dead;
  Printf.printf "checked %d files, %d dead links\n" (List.length docs)
    (List.length dead);
  if dead <> [] then exit 1
