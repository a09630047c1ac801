(* The surface rule: every value a library under lib/ exports has a
   caller, and an export that only tests call says why it exists.

   For each [val] in a [lib/**/*.mli], the scan counts its uses in every
   .ml and .mli under lib/, bin/, bench/, examples/ and test/, except
   the module's own two files. Comments, string and character literals
   are blanked first, so a mention in a doc comment is not a use. A use
   is any one of:

   - a qualified path ending in the value: [Sim.now sim],
     [Taq_engine.Sim.now sim], or a record field path such as
     [c.Tcp_config.sack], which reads the same;
   - a path through a local alias: after [module C = Tcp_config] (or
     [module C = Taq_tcp.Tcp_config]) in a file, [C.sack] in that file;
   - a functor argument: a module passed whole, as in
     [Tables (Slicer) (Flow_evolution)], uses each of its values that a
     [val] declaration in the same file names, which is the parameter
     signature the functor takes it at.

   Two modules may share a name (lib/obs/trace and lib/workload/trace).
   A use inside a library directory resolves to that library's module
   when it has one; a path qualified by its library ([Taq_obs.Trace.x])
   resolves to that library's; any other use counts for each module of
   that name.

   The scan fails, listing every offender, when
   - a value is used nowhere outside its own module: drop it from the
     .mli, and delete it if its own module does not use it either;
   - a value is used only from test/ and its doc comment does not
     contain "Test hook". A test hook shows a test state it cannot
     observe through behaviour, or serves as a reference; anything else
     that only tests call is a capability no program uses.

   bench/ and examples/ count as callers. Optional parameters are not
   scanned: matching them to call sites is a judgement, not a grep. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every .ml/.mli under [root], skipping dune's hidden directories. *)
let rec sources root =
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat root name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

(* [s] with every comment, string and character literal replaced by
   spaces, so offsets still line up with [s]. *)
let blank s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let clear i j =
    for k = i to min (n - 1) (j - 1) do
      if Bytes.get b k <> '\n' then Bytes.set b k ' '
    done
  in
  (* Index just past the string literal opening at [i]. *)
  let rec string_end i =
    if i >= n then n
    else
      match s.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  (* Index just past the quoted string [{id|...|id}] opening at [i], if
     one opens there. *)
  let quoted_end i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub s !k m <> close do
        incr k
      done;
      Some (min n (!k + m))
    end
    else None
  in
  let rec comment_end i depth =
    if i >= n then n
    else if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then
      comment_end (i + 2) (depth + 1)
    else if s.[i] = '*' && i + 1 < n && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if s.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' ->
          let j = comment_end (i + 2) 1 in
          clear i j;
          go j
      | '"' ->
          let j = string_end (i + 1) in
          clear i j;
          go j
      | '{' -> (
          match quoted_end i with
          | Some j ->
              clear i j;
              go j
          | None -> go (i + 1))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
          let j = try String.index_from s (i + 2) '\'' + 1 with Not_found -> n in
          clear i j;
          go j
      | '\'' when i + 2 < n && s.[i + 2] = '\'' ->
          clear i (i + 3);
          go (i + 3)
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string b

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_upper c = match c with 'A' .. 'Z' -> true | _ -> false

let is_lower c = match c with 'a' .. 'z' | '_' -> true | _ -> false

(* Every dotted path [A.B.c] in [s]: its components, in order. *)
let paths s =
  let n = String.length s in
  let ident_end i =
    let j = ref i in
    while !j < n && is_ident s.[!j] do
      incr j
    done;
    !j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_upper s.[i] && (i = 0 || not (is_ident s.[i - 1])) then begin
      let rec components i acc =
        let j = ident_end i in
        let c = String.sub s i (j - i) in
        if j + 1 < n && s.[j] = '.' && (is_upper s.[j + 1] || is_lower s.[j + 1])
        then
          if is_upper s.[j + 1] then components (j + 1) (c :: acc)
          else
            let k = ident_end (j + 1) in
            (List.rev (String.sub s (j + 1) (k - j - 1) :: c :: acc), k)
        else (List.rev (c :: acc), j)
      in
      let p, j = components i [] in
      go j (if List.length p >= 2 then p :: acc else acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let regexp_all re s =
  let rec go i acc =
    match Str.search_forward re s i with
    | exception Not_found -> List.rev acc
    | _ ->
        let groups =
          List.init 3 (fun g -> try Some (Str.matched_group g s) with _ -> None)
        in
        go (Str.match_end ()) (groups :: acc)
  in
  go 0 []

let alias_re =
  Str.regexp
    "\\bmodule[ \n]+\\([A-Z][A-Za-z0-9_']*\\)[ \n]*=[ \n]*\\([A-Z][A-Za-z0-9_'.]*\\)"

let functor_arg_re =
  Str.regexp "[A-Za-z0-9_')][ \n]*([ \n]*\\([A-Z][A-Za-z0-9_']*\\)[ \n]*)"

let val_decl_re = Str.regexp "\\bval[ \n]+\\([a-z_][A-Za-z0-9_']*\\)"

(* One exported value. *)
type export = {
  lib : string;  (** library directory under lib/, e.g. "engine" *)
  modname : string;
  mli : string;
  name : string;
  doc : string;  (** the first comment after the declaration *)
}

let lib_of_path path =
  match String.split_on_char '/' path |> List.rev with
  | _ :: dir :: "lib" :: _ -> Some dir
  | _ -> None

let module_of_path path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let item_re =
  Str.regexp
    "\\b\\(val\\|type\\|exception\\|module\\|include\\|open\\|external\\|class\\)\\b"

let exports_of_mli path =
  let text = read_file path in
  let blanked = blank text in
  let lib = Option.get (lib_of_path path) in
  let rec decls i acc =
    match Str.search_forward val_decl_re blanked i with
    | exception Not_found -> List.rev acc
    | _ ->
        let name = Str.matched_group 1 blanked in
        let after = Str.match_end () in
        let stop =
          try Str.search_forward item_re blanked after
          with Not_found -> String.length text
        in
        let span = String.sub text after (stop - after) in
        let doc =
          match Str.search_forward (Str.regexp_string "(*") span 0 with
          | exception Not_found -> ""
          | k ->
              let e =
                try Str.search_forward (Str.regexp_string "*)") span k
                with Not_found -> String.length span
              in
              String.sub span k (e - k)
        in
        decls after
          ({ lib; modname = module_of_path path; mli = path; name; doc } :: acc)
  in
  decls 0 []

type category = Program | Test

(* What one file uses: its qualified paths, as (library qualifier,
   module, value) triples with local aliases resolved; the modules it
   passes whole as functor arguments; and the names its own [val]
   declarations give. *)
let uses_of_file path =
  let s = blank (read_file path) in
  let aliases =
    regexp_all alias_re s
    |> List.filter_map (function
         | [ _; Some alias; Some target ] ->
             let parts = String.split_on_char '.' target in
             let m = List.nth parts (List.length parts - 1) in
             let q =
               if List.length parts >= 2 then
                 Some (List.nth parts (List.length parts - 2))
               else None
             in
             Some (alias, (q, m))
         | _ -> None)
  in
  let resolve m =
    match List.assoc_opt m aliases with Some qm -> qm | None -> (None, m)
  in
  let qualified =
    paths s
    |> List.map (fun p ->
           let r = List.rev p in
           let v = List.hd r and m = List.nth r 1 in
           let q0 = if List.length r >= 3 then Some (List.nth r 2) else None in
           let q, m =
             match (q0, resolve m) with
             | None, (q, m) -> (q, m)
             | Some q, (_, m) -> (Some (snd (resolve q)), m)
           in
           (q, m, v))
  in
  let declared =
    regexp_all val_decl_re s
    |> List.filter_map (function [ _; Some v; _ ] -> Some v | _ -> None)
  in
  let functor_args =
    regexp_all functor_arg_re s
    |> List.filter_map (function
         | [ _; Some m; _ ] ->
             let q, m = resolve m in
             Some (q, m)
         | _ -> None)
  in
  (qualified, functor_args, declared)

(* Does a use written in [file] as [q.m] refer to [e]? *)
let refers e ~file ~q ~m =
  m = e.modname
  &&
  match q with
  | Some q when String.length q > 4 && String.sub q 0 4 = "Taq_" ->
      String.lowercase_ascii q = "taq_" ^ e.lib
  | _ -> (
      match lib_of_path file with
      | Some dir
        when Sys.file_exists
               (Filename.concat (Filename.dirname file)
                  (String.uncapitalize_ascii m ^ ".mli")) ->
          dir = e.lib
      | _ -> true)

let root = "../.."

let program_roots = [ "lib"; "bin"; "bench"; "examples" ]

let scan () =
  let files =
    List.concat_map
      (fun r ->
        List.map (fun f -> (f, Program)) (sources (Filename.concat root r)))
      program_roots
    @ List.map (fun f -> (f, Test)) (sources (Filename.concat root "test"))
  in
  let exports =
    files
    |> List.filter (fun (f, _) ->
           Filename.check_suffix f ".mli" && lib_of_path f <> None)
    |> List.concat_map (fun (f, _) -> exports_of_mli f)
  in
  let used = Hashtbl.create 1024 in
  let mark e cat =
    let key = (e.mli, e.name) in
    match (Hashtbl.find_opt used key, cat) with
    | Some Program, _ -> ()
    | _ -> Hashtbl.replace used key cat
  in
  List.iter
    (fun (file, cat) ->
      let qualified, functor_args, declared = uses_of_file file in
      let own e = Filename.remove_extension file = Filename.remove_extension e.mli in
      List.iter
        (fun e ->
          if not (own e) then begin
            if
              List.exists
                (fun (q, m, v) -> v = e.name && refers e ~file ~q ~m)
                qualified
              || List.mem e.name declared
                 && List.exists
                      (fun (q, m) -> refers e ~file ~q ~m)
                      functor_args
            then mark e cat
          end)
        exports)
    files;
  (files, exports, fun e -> Hashtbl.find_opt used (e.mli, e.name))

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

let show e = Printf.sprintf "%s: %s.%s" e.mli e.modname e.name

let check_none what offenders =
  if offenders <> [] then
    Alcotest.failf "%d %s:\n  %s" (List.length offenders) what
      (String.concat "\n  " (List.map show offenders))

let files, exports, use_of = scan ()

let test_sees_tree () =
  Alcotest.(check bool) "found lib exports" true (List.length exports > 200);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r ^ " scanned") true
        (List.exists
           (fun (f, _) ->
             String.starts_with ~prefix:(Filename.concat root r ^ "/") f)
           files))
    ("test" :: program_roots);
  let now = List.find (fun e -> e.modname = "Sim" && e.name = "now") exports in
  Alcotest.(check bool) "Sim.now has a program caller" true
    (use_of now = Some Program)

let test_callers () =
  check_none "export(s) with no caller outside their module"
    (List.filter (fun e -> use_of e = None) exports)

let test_hooks () =
  check_none "export(s) used only from test/ without a \"Test hook\" doc"
    (List.filter
       (fun e -> use_of e = Some Test && not (contains e.doc "Test hook"))
       exports)

let () =
  Alcotest.run "surface"
    [
      ( "surface",
        [
          Alcotest.test_case "the scan sees the tree" `Quick test_sees_tree;
          Alcotest.test_case "every export has a caller" `Quick test_callers;
          Alcotest.test_case "test-only exports are test hooks" `Quick
            test_hooks;
        ] );
    ]
